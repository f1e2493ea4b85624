package stats

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// fillAccumulator adds a deterministic stream of weighted observations,
// including a zero and some extreme magnitudes.
func fillAccumulator(a Accumulator, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	a.Add(0, 1e-9)
	for i := 0; i < n; i++ {
		a.Add(math.Exp(20*rng.NormFloat64()), rng.Float64()*1e-3)
	}
}

// TestWeightedCDFGobRoundTrip: a decoded CDF must answer every query with
// the same bits as the original, and keep accepting Adds and Merges.
func TestWeightedCDFGobRoundTrip(t *testing.T) {
	orig := &WeightedCDF{}
	fillAccumulator(orig, 7, 500)
	var back WeightedCDF
	gobRoundTrip(t, orig, &back)
	if back.Len() != orig.Len() || back.TotalWeight() != orig.TotalWeight() {
		t.Fatalf("len/total diverged: %d/%g vs %d/%g", back.Len(), back.TotalWeight(), orig.Len(), orig.TotalWeight())
	}
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.999, 1} {
		if got, want := back.Quantile(q), orig.Quantile(q); got != want {
			t.Fatalf("Quantile(%g) = %v, want %v", q, got, want)
		}
	}
	for _, x := range []float64{0, 1, 1e6} {
		if got, want := back.P(x), orig.P(x); got != want {
			t.Fatalf("P(%g) = %v, want %v", x, got, want)
		}
	}
	back.Add(2, 0.5) // still usable after decode
	if back.Len() != orig.Len()+1 {
		t.Fatal("decoded CDF rejected a new observation")
	}
}

// TestLogHistogramGobRoundTrip mirrors the CDF round trip for the
// histogram accumulator.
func TestLogHistogramGobRoundTrip(t *testing.T) {
	orig := NewLogHistogram(256, -8, 20)
	fillAccumulator(orig, 11, 500)
	var back LogHistogram
	gobRoundTrip(t, orig, &back)
	if back.Count() != orig.Count() || back.TotalWeight() != orig.TotalWeight() ||
		back.Bins() != orig.Bins() || back.Min() != orig.Min() || back.Max() != orig.Max() {
		t.Fatal("histogram summary state diverged after round trip")
	}
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.999, 1} {
		if got, want := back.Quantile(q), orig.Quantile(q); got != want {
			t.Fatalf("Quantile(%g) = %v, want %v", q, got, want)
		}
	}
	back.Add(1, 1) // still usable after decode
	back.Merge(orig)
}

// TestMergeOfDecodedShardsIsBitIdentical locks in the property the sweep
// service is built on: merging shard accumulators that crossed a gob
// boundary yields exactly the merge of the originals, for both kinds —
// transported as []Accumulator, the engine's shard shape.
func TestMergeOfDecodedShardsIsBitIdentical(t *testing.T) {
	for _, kind := range []string{"exact", "hist"} {
		newAcc := func() Accumulator {
			if kind == "hist" {
				return NewLogHistogram(0, -8, 20)
			}
			return &WeightedCDF{}
		}
		shards := make([]Accumulator, 5)
		for i := range shards {
			shards[i] = newAcc()
			fillAccumulator(shards[i], int64(100+i), 200)
		}
		var back []Accumulator
		gobRoundTrip(t, shards, &back)

		direct, wired := newAcc(), newAcc()
		for i := range shards {
			direct.Merge(shards[i])
			wired.Merge(back[i])
		}
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			if got, want := wired.Quantile(q), direct.Quantile(q); got != want {
				t.Fatalf("%s: Quantile(%g) = %v, want %v", kind, q, got, want)
			}
		}
		if wired.TotalWeight() != direct.TotalWeight() {
			t.Fatalf("%s: total weight diverged", kind)
		}
	}
}

// corruptCDFWires are WeightedCDF wire states that Add could never have
// produced.
var corruptCDFWires = []struct {
	name string
	wire wcdfWire
}{
	{"NaN weight", wcdfWire{Xs: []float64{1, 2}, Ws: []float64{math.NaN(), 1}, Total: 1}},
	{"negative weight", wcdfWire{Xs: []float64{1, 2}, Ws: []float64{-3, 1}, Total: -2}},
	{"infinite weight", wcdfWire{Xs: []float64{1}, Ws: []float64{math.Inf(1)}, Total: math.Inf(1)}},
	{"zero weight", wcdfWire{Xs: []float64{1, 2}, Ws: []float64{0, 1}, Total: 1}},
	{"NaN observation", wcdfWire{Xs: []float64{math.NaN()}, Ws: []float64{1}, Total: 1}},
	{"negative total", wcdfWire{Xs: []float64{1}, Ws: []float64{1}, Total: -1}},
	{"NaN total", wcdfWire{Xs: []float64{1}, Ws: []float64{1}, Total: math.NaN()}},
	{"infinite total", wcdfWire{Xs: []float64{1}, Ws: []float64{1}, Total: math.Inf(1)}},
	{"total without observations", wcdfWire{Total: 5}},
	{"observations without total", wcdfWire{Xs: []float64{1}, Ws: []float64{1}}},
}

// TestGobDecodeRejectsCorruptState: hand-rolled inconsistent wire structs
// must fail decode instead of building a lying accumulator.
func TestGobDecodeRejectsCorruptState(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wcdfWire{Xs: []float64{1, 2}, Ws: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	var c WeightedCDF
	if err := c.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("mismatched xs/ws lengths decoded without error")
	}
	// States Add refuses to build: each must fail decode rather than
	// poison a merge (a NaN weight makes every P NaN, a negative one
	// drives the merged total weight negative).
	for _, bad := range corruptCDFWires {
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(bad.wire); err != nil {
			t.Fatal(err)
		}
		var c WeightedCDF
		if err := c.GobDecode(buf.Bytes()); err == nil {
			t.Fatalf("%s: %+v decoded without error", bad.name, bad.wire)
		}
	}

	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(histWire{NBins: 4, LogMin: 0, LogMax: 1, W: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	var h LogHistogram
	if err := h.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("histogram with wrong bin-weight count decoded without error")
	}
}
