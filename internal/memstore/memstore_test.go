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

// roundEncode is the encode rule written out with math.Round: f times
// 2^Frac (math.Ldexp), rounded half away from zero and saturated to
// int32, NaN to 0. It is the reference Encode and EncodeInto are held
// to.
func roundEncode(f float64, frac int) uint32 {
	if math.IsNaN(f) {
		return 0
	}
	v := math.Round(f * math.Ldexp(1, frac))
	if v > math.MaxInt32 {
		v = math.MaxInt32
	}
	if v < math.MinInt32 {
		v = math.MinInt32
	}
	return uint32(int32(v))
}

// encodeProbes returns the scaled values the encode must round like
// math.Round: every tie k+1/2 and both its float neighbours, for k
// across the int32 range; the neighbours of ±(2^31 ± 1/2) and of the
// limits themselves; ±0, ±Inf, NaN and extremes; and random bit
// patterns. Dividing one by 2^Frac gives an input whose product with
// 2^Frac is that value again.
func encodeProbes(rng *rand.Rand) []float64 {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0.49999999999999994, -0.49999999999999994, math.Pi, -math.E}
	around := func(v float64) {
		vals = append(vals, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	ks := []float64{0, 1, 2, 3, 4, 7, 1 << 20, 1<<20 + 1, 1<<30 - 1, 1 << 30, 1<<31 - 2, 1<<31 - 1}
	for i := 0; i < 200; i++ {
		ks = append(ks, float64(rng.Int63n(1<<31)))
	}
	for _, k := range ks {
		around(k + 0.5)
		around(-k - 0.5)
		around(k)
		around(-k)
	}
	for _, v := range []float64{1 << 31, 1<<31 + 0.5, 1<<31 - 0.5, math.MaxInt32, math.MinInt32} {
		around(v)
		around(-v)
	}
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	return vals
}

// TestCodecMatchesLdexpFormula pins Encode and EncodeInto to
// roundEncode, the math.Round formula, at every Frac Encode accepts,
// over encodeProbes scaled into each format. Decode and DecodeInto,
// which multiply by 2^-Frac for Frac 0..31, must equal the division
// there, on random words, 0, ±1, MinInt32 and MaxInt32, and at Fracs
// outside 0..31, where they divide.
func TestCodecMatchesLdexpFormula(t *testing.T) {
	rng := stats.NewRand(11)
	probes := encodeProbes(rng)
	in := make([]float64, len(probes))
	out := make([]uint32, len(probes))
	for frac := 0; frac <= 31; frac++ {
		c := Codec{Frac: frac}
		for i, v := range probes {
			in[i] = v / math.Ldexp(1, frac)
		}
		c.EncodeInto(out, in)
		for i, f := range in {
			want := roundEncode(f, frac)
			if got := c.Encode(f); got != want {
				t.Fatalf("Frac %d: Encode(%v) = %#x, want %#x", frac, f, got, want)
			}
			if out[i] != want {
				t.Fatalf("Frac %d: EncodeInto(%v) = %#x, want %#x", frac, f, out[i], want)
			}
		}
	}
	words := []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff, 0x00010000, 0xdeadbeef}
	for i := 0; i < 200; i++ {
		words = append(words, rng.Uint32())
	}
	fracs := []int{-1100, -1060, -40, -1, 32, 40, 1100}
	for frac := 0; frac <= 31; frac++ {
		fracs = append(fracs, frac)
	}
	batch := make([]float64, len(words))
	for _, frac := range fracs {
		c := Codec{Frac: frac}
		scale := math.Ldexp(1, frac)
		c.DecodeInto(batch, words)
		for i, w := range words {
			want := float64(int32(w)) / scale
			for _, got := range []float64{c.Decode(w), batch[i]} {
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("Frac %d: decode(%#x) = %g, want %g", frac, w, got, want)
				}
			}
		}
	}
}

// FuzzCodecEncode checks Encode against roundEncode on any float64 at
// any Frac Encode accepts.
func FuzzCodecEncode(f *testing.F) {
	for _, v := range []float64{0, 0.5, -0.5, 2.5, -2.5, 1<<31 - 0.5, -1<<31 - 0.5, 0.49999999999999994, math.Inf(1), math.NaN()} {
		f.Add(v, uint8(0))
		f.Add(v, uint8(16))
	}
	f.Fuzz(func(t *testing.T, v float64, fracRaw uint8) {
		frac := int(fracRaw % 32)
		if got, want := (Codec{Frac: frac}).Encode(v), roundEncode(v, frac); got != want {
			t.Fatalf("Frac %d: Encode(%v) = %#x, want %#x", frac, v, got, want)
		}
	})
}

// TestCodecEncodeIsIdempotent pins Encode(Decode(Encode(f))) ==
// Encode(f) — the identity that lets a caller encode a value once and
// keep its decoded grid value — on grid values, off-grid values,
// rounding ties, ±saturation, ±Inf, NaN and ±0, at several Fracs, and
// checks that EncodeInto and DecodeInto agree with Encode and Decode
// element by element.
func TestCodecEncodeIsIdempotent(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1e9, -1e9, math.MaxFloat64, -math.MaxFloat64, 0.5, -0.5, 2.5, -2.5, 1e-12, -1e-12}
	rng := stats.NewRand(13)
	for i := 0; i < 500; i++ {
		vals = append(vals, rng.NormFloat64()*math.Pow(2, float64(rng.Intn(48)-24)))
	}
	for _, frac := range []int{0, 8, 16, 24, 31} {
		c := Codec{Frac: frac}
		grid := append([]float64{c.Max(), c.Min(), c.Max() + 1, c.Min() - 1}, vals...)
		for i := 0; i < 500; i++ {
			grid = append(grid, c.Decode(rng.Uint32()))
		}
		words := make([]uint32, len(grid))
		c.EncodeInto(words, grid)
		back := make([]float64, len(grid))
		c.DecodeInto(back, words)
		again := make([]uint32, len(grid))
		c.EncodeInto(again, back)
		for i, f := range grid {
			w := c.Encode(f)
			if words[i] != w {
				t.Fatalf("Frac %d: EncodeInto(%g) = %#x, Encode %#x", frac, f, words[i], w)
			}
			if d := c.Decode(w); math.Float64bits(back[i]) != math.Float64bits(d) {
				t.Fatalf("Frac %d: DecodeInto(%#x) = %g, Decode %g", frac, w, back[i], d)
			}
			if again[i] != w || c.Encode(c.Decode(w)) != w {
				t.Fatalf("Frac %d: Encode(Decode(Encode(%g))) = %#x, want %#x", frac, f, again[i], w)
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
