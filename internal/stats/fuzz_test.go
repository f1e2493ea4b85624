package stats

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

// gobAccumulator is an Accumulator a shard can carry over the wire.
type gobAccumulator interface {
	Accumulator
	GobEncode() ([]byte, error)
	GobDecode([]byte) error
	P(x float64) float64
	Quantile(q float64) float64
	Points() (xs, ps []float64)
	TotalWeight() float64
}

// FuzzAccumulatorGobDecode feeds arbitrary bytes to the two decoders a
// worker's shard result reaches, WeightedCDF.GobDecode and
// LogHistogram.GobDecode. Neither may panic; whatever decodes must
// answer P, Points and (at positive total weight) Quantile without a
// panic; and decode -> encode -> decode must reproduce the encoding and
// every query bit for bit. The seeds are small valid accumulators, every
// truncation of their encodings, and the corrupt CDF wire states.
func FuzzAccumulatorGobDecode(f *testing.F) {
	var seeds [][]byte
	addEncoding := func(a gobAccumulator) {
		b, err := a.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i <= len(b); i++ {
			seeds = append(seeds, b[:i])
		}
	}
	cdf := &WeightedCDF{}
	addEncoding(cdf)
	cdf.Add(0, 0.25)
	cdf.Add(3, 0.5)
	cdf.Add(1e-9, 1e-3)
	addEncoding(cdf)
	hist := NewLogHistogram(8, -3, 3)
	addEncoding(hist)
	hist.Add(0, 0.25)
	hist.Add(0.5, 1)
	hist.Add(1e6, 2)
	addEncoding(hist)
	for _, bad := range corruptCDFWires {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(bad.wire); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkGobDecode(t, b, &WeightedCDF{}, &WeightedCDF{})
		checkGobDecode(t, b, &LogHistogram{}, &LogHistogram{})
	})
}

// checkGobDecode decodes b into first and, if that succeeds, re-encodes
// it into second and checks the two agree.
func checkGobDecode(t *testing.T, b []byte, first, second gobAccumulator) {
	if first.GobDecode(b) != nil {
		return
	}
	enc, err := first.GobEncode()
	if err != nil {
		t.Fatalf("%T: re-encode of decoded state: %v", first, err)
	}
	if err := second.GobDecode(enc); err != nil {
		t.Fatalf("%T: decode of re-encoded state: %v", first, err)
	}
	again, err := second.GobEncode()
	if err != nil {
		t.Fatalf("%T: second re-encode: %v", first, err)
	}
	if !bytes.Equal(enc, again) {
		t.Fatalf("%T: decode -> encode -> decode changed the encoding", first)
	}
	for _, x := range []float64{math.Inf(-1), -1, 0, 1e-9, 0.5, 1, 3, 1e6, math.Inf(1)} {
		if p, q := first.P(x), second.P(x); math.Float64bits(p) != math.Float64bits(q) {
			t.Fatalf("%T: P(%g) = %g, re-decoded %g", first, x, p, q)
		}
	}
	xs1, ps1 := first.Points()
	xs2, ps2 := second.Points()
	if !sameBits(xs1, xs2) || !sameBits(ps1, ps2) {
		t.Fatalf("%T: Points differ after re-decode", first)
	}
	if first.TotalWeight() > 0 {
		for _, q := range []float64{1e-6, 0.5, 1} {
			if a, c := first.Quantile(q), second.Quantile(q); math.Float64bits(a) != math.Float64bits(c) {
				t.Fatalf("%T: Quantile(%g) = %g, re-decoded %g", first, q, a, c)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
