package memstore

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"faultmem/internal/fault"
	"faultmem/internal/mat"
	"faultmem/internal/mem"
	"faultmem/internal/stats"
)

func TestCodecRoundTripExactness(t *testing.T) {
	c := DefaultCodec()
	f := func(raw int32) bool {
		// Any representable fixed-point value round-trips exactly.
		v := float64(raw) / 65536.0
		return c.Decode(c.Encode(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecQuantizationError(t *testing.T) {
	c := DefaultCodec()
	rng := stats.NewRand(3)
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64() * 100
		got := c.Decode(c.Encode(v))
		if math.Abs(got-v) > 1.0/65536.0 {
			t.Fatalf("quantization error %g for %g", got-v, v)
		}
	}
}

func TestCodecSaturation(t *testing.T) {
	c := DefaultCodec()
	if got := c.Decode(c.Encode(1e9)); got != c.Max() {
		t.Errorf("positive saturation -> %g, want %g", got, c.Max())
	}
	if got := c.Decode(c.Encode(-1e9)); got != c.Min() {
		t.Errorf("negative saturation -> %g, want %g", got, c.Min())
	}
	if got := c.Encode(math.NaN()); got != 0 {
		t.Errorf("NaN encodes to %#x", got)
	}
}

// TestCodecMatchesLdexpFormula pins Encode and Decode to the formula
// with 2^Frac from math.Ldexp: every Frac Encode accepts, over a value
// sweep that covers rounding ties, saturation, signed zeros, NaN and
// infinities, and Decode also at Fracs outside 0..31.
func TestCodecMatchesLdexpFormula(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1.5, -2.5, 1e-12, -1e-12,
		math.Pi, -math.E, 65535.99999, 32767.5, -32768.5, 1e9, -1e9,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 2147483647, -2147483648, 0x1p-31, 3 * 0x1p-32}
	rng := stats.NewRand(11)
	for i := 0; i < 400; i++ {
		vals = append(vals, rng.NormFloat64()*math.Pow(2, float64(rng.Intn(64)-32)))
	}
	words := []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff, 0x00010000, 0xdeadbeef}
	for i := 0; i < 200; i++ {
		words = append(words, rng.Uint32())
	}
	for frac := 0; frac <= 31; frac++ {
		c := Codec{Frac: frac}
		scale := math.Ldexp(1, frac)
		for _, v := range vals {
			if got, want := c.Encode(v), encodeScaled(v, scale); got != want {
				t.Fatalf("Frac %d: Encode(%g) = %#x, want %#x", frac, v, got, want)
			}
		}
	}
	for _, frac := range []int{-1100, -1060, -40, -1, 0, 7, 16, 31, 32, 40, 1100} {
		c := Codec{Frac: frac}
		scale := math.Ldexp(1, frac)
		for _, w := range words {
			got, want := c.Decode(w), float64(int32(w))/scale
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("Frac %d: Decode(%#x) = %g, want %g", frac, w, got, want)
			}
		}
	}
}

func TestCodecSignHandling(t *testing.T) {
	c := DefaultCodec()
	if c.Decode(c.Encode(-1.5)) != -1.5 {
		t.Error("negative value mangled")
	}
	// MSB flip of a small positive number produces a hugely negative one:
	// the error-magnitude mechanism of the paper.
	w := c.Encode(1.0)
	flipped := w ^ (1 << 31)
	if c.Decode(flipped) >= 0 {
		t.Error("MSB flip should produce a negative value")
	}
	if math.Abs(c.Decode(flipped)-c.Decode(w)) < 30000 {
		t.Error("MSB flip error magnitude implausibly small")
	}
}

func TestRoundTripValuesPerfectMemory(t *testing.T) {
	c := DefaultCodec()
	m := mem.NewPerfect(8)
	vals := []float64{0, 1.25, -3.5, 100.0625, -0.0000152587890625}
	got := c.RoundTripValues(m, vals)
	for i, v := range vals {
		if got[i] != v {
			t.Errorf("val %d: %g != %g", i, got[i], v)
		}
	}
	if empty := c.RoundTripValues(m, nil); empty == nil || len(empty) != 0 {
		t.Errorf("empty round trip returned %#v, want an empty slice", empty)
	}
}

func TestRoundTripPagesThroughSmallMemory(t *testing.T) {
	// 3-word memory, 10 values: pages reuse the same words and the same
	// fault map. A flip fault at word 1, bit 31 corrupts values at flat
	// indexes 1, 4, 7 (every page's second word).
	c := DefaultCodec()
	fm := fault.Map{{Row: 1, Col: 31, Kind: fault.Flip}}
	raw, err := mem.NewRaw(3, fm)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 10)
	got := c.RoundTripValues(raw, vals)
	for i, v := range got {
		if i%3 == 1 {
			if v == 0 {
				t.Errorf("index %d should be corrupted", i)
			}
		} else if v != 0 {
			t.Errorf("index %d corrupted unexpectedly: %g", i, v)
		}
	}
}

func TestRoundTripDatasetCorruption(t *testing.T) {
	// An MSB fault must visibly corrupt some entries but leave the
	// fraction bounded by the fault geometry.
	c := DefaultCodec()
	fm := fault.Map{{Row: 0, Col: 31, Kind: fault.Flip}}
	raw, err := mem.NewRaw(64, fm)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.NewDense(32, 4)
	y := make([]float64, 32)
	xc, yc := c.RoundTripDataset(raw, x, y)
	corrupted := 0
	for i := 0; i < 32; i++ {
		for j := 0; j < 4; j++ {
			if xc.At(i, j) != 0 {
				corrupted++
			}
		}
		if yc[i] != 0 {
			corrupted++
		}
	}
	// 160 words through a 64-word memory = 3 pages -> 3 corrupted words.
	if corrupted != 3 {
		t.Errorf("%d corrupted entries, want 3", corrupted)
	}
}

func TestRoundTripDatasetIntoMatchesAllocating(t *testing.T) {
	// The workspace path must produce the same corrupted dataset as the
	// allocating path, and reusing the workspace must not allocate.
	c := DefaultCodec()
	fm := fault.Map{{Row: 0, Col: 31, Kind: fault.Flip}, {Row: 5, Col: 12, Kind: fault.Flip}}
	raw, err := mem.NewRaw(64, fm)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(9)
	x := mat.NewDense(32, 4)
	y := make([]float64, 32)
	for i := 0; i < 32; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.NormFloat64()*10)
		}
		y[i] = rng.NormFloat64()
	}

	xa, ya := c.RoundTripDataset(raw, x, y)
	var ws Workspace
	c.EncodeDatasetInto(&ws, x, y)
	xb, yb := c.RoundTripCachedInto(&ws, raw, nil)
	for i := 0; i < 32; i++ {
		for j := 0; j < 4; j++ {
			if xa.At(i, j) != xb.At(i, j) {
				t.Fatalf("(%d,%d): %g != %g", i, j, xb.At(i, j), xa.At(i, j))
			}
		}
		if ya[i] != yb[i] {
			t.Fatalf("y[%d]: %g != %g", i, yb[i], ya[i])
		}
	}

	avg := testing.AllocsPerRun(50, func() {
		c.RoundTripCachedInto(&ws, raw, nil)
	})
	if avg != 0 {
		t.Errorf("warm workspace round trip allocates %.1f times", avg)
	}
}

func TestWordsNeeded(t *testing.T) {
	if WordsNeeded(100, 11) != 1200 {
		t.Errorf("WordsNeeded = %d", WordsNeeded(100, 11))
	}
}

func TestRoundTripThroughECCIsClean(t *testing.T) {
	// Single fault per word + full ECC: dataset must round-trip intact.
	c := DefaultCodec()
	rng := stats.NewRand(5)
	var fm fault.Map
	for r := 0; r < 16; r++ {
		fm = append(fm, fault.Fault{Row: r, Col: rng.Intn(32), Kind: fault.Flip})
	}
	eccm, err := mem.NewECC(16, fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	got := c.RoundTripValues(eccm, vals)
	for i := range vals {
		want := c.Decode(c.Encode(vals[i]))
		if got[i] != want {
			t.Errorf("val %d corrupted through ECC: %g vs %g", i, got[i], want)
		}
	}
}

// scalarTripDataset is the word-at-a-time oracle of the dataset round
// trip: it pages the flat layout (row-major features, then labels)
// through m with one Write and one Read per word.
func scalarTripDataset(c Codec, m mem.Word32, x *mat.Dense, y []float64) (*mat.Dense, []float64) {
	rows, cols := x.Dims()
	flat := make([]float64, 0, rows*cols+len(y))
	for i := 0; i < rows; i++ {
		flat = append(flat, x.RawRow(i)...)
	}
	flat = append(flat, y...)
	page := m.Words()
	for start := 0; start < len(flat); start += page {
		end := min(start+page, len(flat))
		for i := start; i < end; i++ {
			m.Write(i-start, c.Encode(flat[i]))
		}
		for i := start; i < end; i++ {
			flat[i] = c.Decode(m.Read(i - start))
		}
	}
	out := mat.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		out.SetRow(i, flat[i*cols:(i+1)*cols])
	}
	return out, flat[rows*cols:]
}

// TestRoundTripCachedMatchesDirect pins the cached-words path: one
// EncodeDatasetInto followed by RoundTripCachedInto must reproduce the
// word-at-a-time oracle bit for bit on the same memory — across
// multiple round trips of one cache and datasets larger than the
// memory (paged).
func TestRoundTripCachedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := DefaultCodec()
	rows, cols := 113, 7
	x := mat.NewDense(rows, cols)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x.Set(i, j, rng.NormFloat64()*100)
		}
		y[i] = float64(rng.Intn(10))
	}
	memRows := 16 // far smaller than the dataset: exercises paging
	fm := fault.GeneratePcell(rand.New(rand.NewSource(3)), memRows, 32, 0.01, fault.Flip)
	for trip := 0; trip < 3; trip++ {
		mDirect, err := mem.NewRaw(memRows, fm)
		if err != nil {
			t.Fatal(err)
		}
		wantX, wantY := scalarTripDataset(c, mDirect, x, y)

		mCached, err := mem.NewRaw(memRows, fm)
		if err != nil {
			t.Fatal(err)
		}
		var wsCached Workspace
		c.EncodeDatasetInto(&wsCached, x, y)
		gotX, gotY := c.RoundTripCachedInto(&wsCached, mCached, nil)

		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Float64bits(gotX.At(i, j)) != math.Float64bits(wantX.At(i, j)) {
					t.Fatalf("trip %d: X(%d,%d) %g != %g", trip, i, j, gotX.At(i, j), wantX.At(i, j))
				}
			}
			if math.Float64bits(gotY[i]) != math.Float64bits(wantY[i]) {
				t.Fatalf("trip %d: Y[%d] %g != %g", trip, i, gotY[i], wantY[i])
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("RoundTripCachedInto without a cached dataset did not panic")
		}
	}()
	var empty Workspace
	m2, _ := mem.NewRaw(memRows, fm)
	c.RoundTripCachedInto(&empty, m2, nil)
}
