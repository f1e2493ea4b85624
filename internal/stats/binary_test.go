package stats

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"faultmem/internal/wire"
)

// binaryRoundTrip ships accs through the Accumulators form, the shape
// an engine shard travels in.
func binaryRoundTrip(t *testing.T, accs ...Accumulator) Accumulators {
	t.Helper()
	b, err := Accumulators(accs).AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back Accumulators
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back) != len(accs) {
		t.Fatalf("decoded %d accumulators, want %d", len(back), len(accs))
	}
	return back
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

// TestWeightedCDFBinaryRoundTrip: a decoded CDF must answer every query
// with the same bits as the original, and keep accepting Adds and Merges.
func TestWeightedCDFBinaryRoundTrip(t *testing.T) {
	orig := &WeightedCDF{}
	fillAccumulator(orig, 7, 500)
	back := binaryRoundTrip(t, orig)[0].(*WeightedCDF)
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

// TestLogHistogramBinaryRoundTrip mirrors the CDF round trip for the
// histogram accumulator.
func TestLogHistogramBinaryRoundTrip(t *testing.T) {
	orig := NewLogHistogram(256, -8, 20)
	fillAccumulator(orig, 11, 500)
	back := binaryRoundTrip(t, orig)[0].(*LogHistogram)
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
// service is built on: merging shard accumulators that crossed the wire
// yields exactly the merge of the originals, for both kinds —
// transported as Accumulators, the engine's shard shape.
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
		back := binaryRoundTrip(t, shards...)

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

// cdfForm spells out a WeightedCDF's binary form field by field, so
// tests can build states Add never would.
type cdfForm struct {
	Xs, Ws []float64
	Total  float64
}

// encode returns a one-element Accumulators encoding holding f. The
// observation count is len(Xs), whatever Ws holds.
func (f cdfForm) encode() []byte {
	b := wire.AppendUint64(nil, 1)
	b = append(b, kindWeightedCDF)
	b = wire.AppendUint64(b, uint64(len(f.Xs)))
	b = wire.AppendFloat64s(b, f.Xs)
	b = wire.AppendFloat64s(b, f.Ws)
	return wire.AppendFloat64(b, f.Total)
}

// histForm spells out a LogHistogram's binary form field by field.
type histForm struct {
	LogMin, LogMax float64
	W              []float64
	Total          float64
	Count          int64
	SumX, SumXX    float64
	Min, Max       float64
}

// encode returns a one-element Accumulators encoding holding f.
func (f histForm) encode() []byte {
	b := wire.AppendUint64(nil, 1)
	b = append(b, kindLogHistogram)
	b = wire.AppendFloat64(b, f.LogMin)
	b = wire.AppendFloat64(b, f.LogMax)
	b = wire.AppendUint64(b, uint64(len(f.W)))
	b = wire.AppendFloat64s(b, f.W)
	b = wire.AppendFloat64(b, f.Total)
	b = wire.AppendUint64(b, uint64(f.Count))
	for _, v := range []float64{f.SumX, f.SumXX, f.Min, f.Max} {
		b = wire.AppendFloat64(b, v)
	}
	return b
}

// corruptCDFForms are WeightedCDF states that Add could never have
// produced.
var corruptCDFForms = []struct {
	name string
	form cdfForm
}{
	{"NaN weight", cdfForm{Xs: []float64{1, 2}, Ws: []float64{math.NaN(), 1}, Total: 1}},
	{"negative weight", cdfForm{Xs: []float64{1, 2}, Ws: []float64{-3, 1}, Total: -2}},
	{"infinite weight", cdfForm{Xs: []float64{1}, Ws: []float64{math.Inf(1)}, Total: math.Inf(1)}},
	{"zero weight", cdfForm{Xs: []float64{1, 2}, Ws: []float64{0, 1}, Total: 1}},
	{"NaN observation", cdfForm{Xs: []float64{math.NaN()}, Ws: []float64{1}, Total: 1}},
	{"negative total", cdfForm{Xs: []float64{1}, Ws: []float64{1}, Total: -1}},
	{"NaN total", cdfForm{Xs: []float64{1}, Ws: []float64{1}, Total: math.NaN()}},
	{"infinite total", cdfForm{Xs: []float64{1}, Ws: []float64{1}, Total: math.Inf(1)}},
	{"total without observations", cdfForm{Total: 5}},
	{"observations without total", cdfForm{Xs: []float64{1}, Ws: []float64{1}}},
}

// TestBinaryDecodeRejectsCorruptState: hand-built inconsistent forms
// must fail decode instead of building a lying accumulator.
func TestBinaryDecodeRejectsCorruptState(t *testing.T) {
	var a Accumulators
	if err := a.UnmarshalBinary(cdfForm{Xs: []float64{1, 2}, Ws: []float64{1}, Total: 1}.encode()); err == nil {
		t.Fatal("fewer weights than observations decoded without error")
	}
	// States Add refuses to build: each must fail decode rather than
	// poison a merge (a NaN weight makes every P NaN, a negative one
	// drives the merged total weight negative).
	for _, bad := range corruptCDFForms {
		var a Accumulators
		if err := a.UnmarshalBinary(bad.form.encode()); err == nil {
			t.Fatalf("%s: %+v decoded without error", bad.name, bad.form)
		}
	}
	if err := a.UnmarshalBinary(histForm{LogMin: 0, LogMax: 1, W: []float64{1, 2}}.encode()); err == nil {
		t.Fatal("histogram without an interior bin decoded without error")
	}
	// The valid forms around them decode.
	good := cdfForm{Xs: []float64{1, 2}, Ws: []float64{0.5, 1}, Total: 1.5}
	if err := a.UnmarshalBinary(good.encode()); err != nil {
		t.Fatalf("valid CDF form rejected: %v", err)
	}
}

// TestLogHistogramBinaryDecodeRejectsBadGeometryAndWeights: decoding
// enforces what NewLogHistogram and Add enforce.
func TestLogHistogramBinaryDecodeRejectsBadGeometryAndWeights(t *testing.T) {
	good := func() histForm {
		return histForm{LogMin: -1, LogMax: 1, W: []float64{0, 1, 2, 0}, Total: 3, Count: 2}
	}
	cases := map[string]func(*histForm){
		"+Inf max":       func(f *histForm) { f.LogMax = math.Inf(1) },
		"-Inf min":       func(f *histForm) { f.LogMin = math.Inf(-1) },
		"NaN min":        func(f *histForm) { f.LogMin = math.NaN() },
		"empty domain":   func(f *histForm) { f.LogMax = f.LogMin },
		"too many bins":  func(f *histForm) { f.W = make([]float64, MaxLogHistBins+3) },
		"no bins":        func(f *histForm) { f.W = f.W[:2] },
		"negative bin":   func(f *histForm) { f.W[1] = -1 },
		"NaN bin":        func(f *histForm) { f.W[2] = math.NaN() },
		"infinite bin":   func(f *histForm) { f.W[3] = math.Inf(1) },
		"negative under": func(f *histForm) { f.W[0] = -0.5 },
	}
	decode := func(f histForm) error {
		var a Accumulators
		return a.UnmarshalBinary(f.encode())
	}
	if err := decode(good()); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	for name, corrupt := range cases {
		f := good()
		corrupt(&f)
		if err := decode(f); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestAccumulatorsBinaryRejectsMalformedFraming: the framing around the
// element forms is as strict as the forms — a count that overstates the
// bytes left, an unknown kind, a truncation and trailing bytes all fail.
func TestAccumulatorsBinaryRejectsMalformedFraming(t *testing.T) {
	cdf := &WeightedCDF{}
	cdf.Add(1, 0.5)
	valid, err := Accumulators{cdf, NewLogHistogram(4, -1, 1)}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty input":    nil,
		"count lie":      append(wire.AppendUint64(nil, 3), valid[8:]...),
		"huge count":     append(bytes.Repeat([]byte{0xFF}, 8), valid[8:]...),
		"unknown kind":   append(append(wire.AppendUint64(nil, 1), 9), valid[9:]...),
		"truncated":      valid[:len(valid)-1],
		"trailing bytes": append(append([]byte(nil), valid...), 0),
	}
	for name, b := range cases {
		var a Accumulators
		if err := a.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A lying observation count inside the CDF form.
	lie := append([]byte(nil), valid...)
	copy(lie[9:17], bytes.Repeat([]byte{0xFF}, 8))
	var a Accumulators
	if err := a.UnmarshalBinary(lie); err == nil {
		t.Error("observation count lie decoded without error")
	}
}

// TestAccumulatorsBinaryRefusesFormlessElements: encoding fails on an
// element the form has no kind for, so the shard stays on its host.
func TestAccumulatorsBinaryRefusesFormlessElements(t *testing.T) {
	for name, a := range map[string]Accumulators{
		"nil interface": {nil},
		"nil CDF":       {(*WeightedCDF)(nil)},
		"nil histogram": {(*LogHistogram)(nil)},
		"foreign kind":  {&WeightedCDF{}, foreignAccumulator{}},
	} {
		if _, err := a.AppendBinary(nil); err == nil {
			t.Errorf("%s: encoded without error", name)
		}
	}
}

// foreignAccumulator is an Accumulator of a kind the form does not know.
type foreignAccumulator struct{ Accumulator }

// TestDecodedAccumulatorsDoNotAliasInput: a decoded shard owns its
// slices, so the frame buffer it came from can be reused.
func TestDecodedAccumulatorsDoNotAliasInput(t *testing.T) {
	cdf := &WeightedCDF{}
	fillAccumulator(cdf, 3, 20)
	hist := NewLogHistogram(16, -8, 20)
	fillAccumulator(hist, 4, 20)
	b, err := Accumulators{cdf, hist}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), b...)
	var back Accumulators
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	clear(b)
	again, err := back.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("clearing the input changed the decoded accumulators")
	}
}
