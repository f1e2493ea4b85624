package stats

import (
	"bytes"
	"math"
	"testing"
)

// FuzzAccumulatorGobDecode feeds arbitrary bytes to the decoder a
// worker's Fig. 5 shard result reaches, Accumulators.UnmarshalBinary.
// (The name is kept from the gob decoders that binary form replaced, so
// the seed corpus keeps its test IDs.) It may not panic; whatever
// decodes must re-encode to exactly the input (the form has one
// encoding per state), decode again, and answer P, Points and (at
// positive total weight) Quantile with the same bits both times; and
// the decoded state may not alias the input. The seeds are small valid
// shards, every truncation of their encodings, each single-byte
// overwrite with 0xFF (which makes every count lie), and the corrupt
// CDF and histogram forms.
func FuzzAccumulatorGobDecode(f *testing.F) {
	cdf := &WeightedCDF{}
	cdf.Add(0, 0.25)
	cdf.Add(3, 0.5)
	cdf.Add(1e-9, 1e-3)
	hist := NewLogHistogram(8, -3, 3)
	hist.Add(0, 0.25)
	hist.Add(0.5, 1)
	hist.Add(1e6, 2)
	for _, a := range []Accumulators{
		{},
		{&WeightedCDF{}},
		{cdf},
		{NewLogHistogram(8, -3, 3)},
		{hist},
		{cdf, hist, cdf},
	} {
		b, err := a.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for i := range b {
			f.Add(b[:i])
			lie := append([]byte(nil), b...)
			lie[i] = 0xFF
			f.Add(lie)
		}
	}
	for _, bad := range corruptCDFForms {
		f.Add(bad.form.encode())
	}
	f.Add(histForm{LogMin: -1, LogMax: 1, W: []float64{0, 1, -1, 0}}.encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		in := append([]byte(nil), b...)
		var first Accumulators
		if first.UnmarshalBinary(in) != nil {
			return
		}
		clear(in)
		enc, err := first.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode of decoded state: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatal("decode -> encode changed the bytes")
		}
		var second Accumulators
		if err := second.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode of re-encoded state: %v", err)
		}
		again, err := second.AppendBinary(nil)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("decode -> encode -> decode changed the encoding (%v)", err)
		}
		for i := range first {
			checkSameQueries(t, first[i], second[i])
		}
	})
}

// checkSameQueries checks that two decodings of one state answer every
// query with the same bits, and that the queries do not panic.
func checkSameQueries(t *testing.T, first, second Accumulator) {
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
