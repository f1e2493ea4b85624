package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"faultmem/internal/wire"
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

// FuzzBatchAdd checks the batch adds against addOne, the one-at-a-time
// rule. The input's first three bytes pick a histogram geometry (a zero
// first byte picks the Fig. 5 engine's), the next eight a weight, and
// the rest observations, eight bytes each; the observation bytes double
// as AddTable's indices into a one-arm table of the first 64
// observations, one in nine or so past them. For a WeightedCDF and a
// LogHistogram, AddBatch of the observations and AddTable of the indices
// must each panic exactly when the one-at-a-time adds do and leave the
// same binary form; an index past the table panics before anything
// changes, and NewTable refuses observations that hold a NaN.
func FuzzBatchAdd(f *testing.F) {
	seed := func(geom [3]byte, w float64, xs ...float64) []byte {
		b := wire.AppendFloat64(geom[:], w)
		return wire.AppendFloat64s(b, xs)
	}
	f.Add(seed([3]byte{}, 1e-6, 0, 1e-9, 3e-4, 1, 1e20, 1e25))
	f.Add(seed([3]byte{5, 0xFD, 8}, 0.5, -1, 0x1p-1030, 1, 7, 1e3, math.Inf(1)))
	f.Add(seed([3]byte{1, 0, 1}, 0, 2, math.NaN(), 3))
	f.Add(seed([3]byte{31, 0x7F, 0xFF}, 3, 1, 2, math.NaN()))
	f.Add(seed([3]byte{2, 3, 4}, -1, 1))
	f.Add(seed([3]byte{2, 3, 4}, math.Inf(1)))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 11 {
			return
		}
		geom, w, rest := b[:3], math.Float64frombits(binary.LittleEndian.Uint64(b[3:11])), b[11:]
		newHist := func() *LogHistogram { return NewLogHistogram(0, -8, 20) }
		if geom[0] != 0 {
			logMin := float64(int8(geom[1]) % 16)
			newHist = func() *LogHistogram {
				return NewLogHistogram(int(geom[0]%32)+1, logMin, logMin+float64(geom[2]%24)+1)
			}
		}
		xs := make([]float64, len(rest)/8)
		for k := range xs {
			xs[k] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*k:]))
		}
		vals := xs[:min(len(xs), 64)]
		idx := make([]uint16, len(rest))
		for k, v := range rest {
			idx[k] = uint16(int(v) % (len(vals) + 1 + len(vals)/8))
		}
		var tab *Table
		nan := slices.ContainsFunc(vals, math.IsNaN)
		if p := panicOf(func() { tab = NewTable([][]float64{vals}, newHist()) }); (p != nil) != (nan || len(vals) == 0) {
			t.Fatalf("NewTable of %d values, NaN %t, panicked with %v", len(vals), nan, p)
		}
		var s TableScratch
		// The one-at-a-time form of each batch add checks the weight
		// first, even for an empty batch; a table add then checks every
		// index before it adds any.
		checkWeight := func() {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				panic("invalid weight")
			}
		}
		for _, newAcc := range []func() Accumulator{
			func() Accumulator { return &WeightedCDF{} },
			func() Accumulator { return newHist() },
		} {
			for _, c := range []struct {
				name  string
				batch func(Accumulator)
				one   func(Accumulator)
			}{
				{"AddBatch", func(a Accumulator) { a.AddBatch(xs, w) }, func(a Accumulator) {
					checkWeight()
					for _, x := range xs {
						addOne(a, x, w)
					}
				}},
				{"AddTable", func(a Accumulator) { Accumulators{a}.AddTable(tab, idx, w, &s) }, func(a Accumulator) {
					checkWeight()
					for _, i := range idx {
						if int(i) >= len(vals) {
							panic("index out of range")
						}
					}
					for _, i := range idx {
						addOne(a, vals[i], w)
					}
				}},
			} {
				if tab == nil && c.name == "AddTable" {
					continue
				}
				want, got := newAcc(), newAcc()
				wantPanic := panicOf(func() { c.one(want) }) != nil
				gotPanic := panicOf(func() { c.batch(got) }) != nil
				if gotPanic != wantPanic {
					t.Fatalf("%T %s: panicked %t, one at a time %t", want, c.name, gotPanic, wantPanic)
				}
				if !bytes.Equal(encoded(t, got), encoded(t, want)) {
					t.Fatalf("%T %s: state differs from the one-at-a-time adds'", want, c.name)
				}
			}
		}
	})
}
