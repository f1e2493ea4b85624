package core

import (
	"math"
	"testing"
	"testing/quick"

	"faultmem/internal/bits"
	"faultmem/internal/fault"
	"faultmem/internal/stats"
)

func cfg32(nfm int) Config { return Config{Width: 32, NFM: nfm} }

func TestConfigValidate(t *testing.T) {
	good := []Config{{32, 1}, {32, 5}, {16, 4}, {8, 3}, {64, 6}, {2, 1}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	bad := []Config{{32, 0}, {32, 6}, {31, 3}, {0, 1}, {128, 3}, {-8, 2}, {64, 7}}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestSegmentSizeEq1(t *testing.T) {
	// Eq. (1): S = W / 2^nFM for the 32-bit word of the paper.
	want := map[int]int{1: 16, 2: 8, 3: 4, 4: 2, 5: 1}
	for nfm, s := range want {
		c := cfg32(nfm)
		if got := c.SegmentSize(); got != s {
			t.Errorf("nFM=%d: S=%d, want %d", nfm, got, s)
		}
		if got := c.NumSegments(); got != 32/s {
			t.Errorf("nFM=%d: segments=%d, want %d", nfm, got, 32/s)
		}
	}
}

func TestMaxErrorMagnitude(t *testing.T) {
	// §3: worst-case error magnitude is bounded by 2^(S-1).
	want := map[int]uint64{1: 1 << 15, 2: 1 << 7, 3: 1 << 3, 4: 1 << 1, 5: 1 << 0}
	for nfm, m := range want {
		if got := cfg32(nfm).MaxErrorMagnitude(); got != m {
			t.Errorf("nFM=%d: max magnitude %d, want %d", nfm, got, m)
		}
	}
}

func TestShiftForXPaperExample(t *testing.T) {
	// Fig. 3 bottom word: W=32, nFM=5, fault in bit 3 => T = 29 (Eq. 2
	// worked example in §3).
	c := cfg32(5)
	x := c.XForSingleFault(3)
	if x != 3 {
		t.Fatalf("xFM = %d, want 3", x)
	}
	if tt := c.ShiftForX(x); tt != 29 {
		t.Fatalf("T = %d, want 29", tt)
	}
	// Fig. 3 top word: fault at the MSB (bit 31), single-bit segments:
	// the LSB must be stored at physical position 31.
	xTop := c.XForSingleFault(31)
	tTop := c.ShiftForX(xTop)
	if got := newRotation(32, tTop).write(1, bits.Mask(32)); got != 1<<31 {
		t.Fatalf("top-word LSB stored at %#x, want bit 31", got)
	}
	// x = 0 means no shift.
	if c.ShiftForX(0) != 0 {
		t.Error("x=0 should give T=0")
	}
}

func TestSingleFaultLandsInLowestSegment(t *testing.T) {
	// Core invariant of §3: with the paper's single-fault rule, the fault
	// corrupts logical bit f mod S, so the error is < 2^S.
	for nfm := 1; nfm <= 5; nfm++ {
		c := cfg32(nfm)
		s := c.SegmentSize()
		for f := 0; f < 32; f++ {
			x := c.XForSingleFault(f)
			lp := c.LogicalPosition(f, x)
			if lp != f%s {
				t.Errorf("nFM=%d f=%d: logical position %d, want %d", nfm, f, lp, f%s)
			}
			if uint64(1)<<uint(lp) > c.MaxErrorMagnitude() {
				t.Errorf("nFM=%d f=%d: magnitude exceeds bound", nfm, f)
			}
		}
	}
}

func TestSingleFaultErrorExponentFig4(t *testing.T) {
	// Fig. 4: error magnitude exponent per faulty bit position. Spot-check
	// the characteristic sawtooth: exponent resets at segment boundaries.
	c := cfg32(3) // S = 4
	wantSeq := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for b, want := range wantSeq {
		if got := c.SingleFaultErrorExponent(b); got != want {
			t.Errorf("nFM=3 b=%d: exponent %d, want %d", b, got, want)
		}
	}
	// nFM=5: always 0 (max error 2^0 = 1, §3).
	c5 := cfg32(5)
	for b := 0; b < 32; b++ {
		if c5.SingleFaultErrorExponent(b) != 0 {
			t.Errorf("nFM=5 b=%d: exponent nonzero", b)
		}
	}
	// No-correction reference grows linearly: compare worst case.
	c1 := cfg32(1)
	if c1.SingleFaultErrorExponent(31) != 15 {
		t.Errorf("nFM=1 b=31: exponent %d, want 15", c1.SingleFaultErrorExponent(31))
	}
}

func TestBestXMatchesPaperRuleForSingleFault(t *testing.T) {
	f := func(fRaw uint8, nfmRaw uint8) bool {
		nfm := int(nfmRaw)%5 + 1
		c := cfg32(nfm)
		fpos := int(fRaw) % 32
		x, logical := c.BestX([]int{fpos})
		return x == c.XForSingleFault(fpos) && len(logical) == 1 && logical[0] == fpos%c.SegmentSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestBestXEmptyRow(t *testing.T) {
	x, logical := cfg32(3).BestX(nil)
	if x != 0 || logical != nil {
		t.Errorf("empty row: x=%d logical=%v", x, logical)
	}
}

func TestBestXMultiFaultNeverWorseThanAnyFixedShift(t *testing.T) {
	// Optimality: the chosen x must yield cost <= every other x.
	rng := stats.NewRand(31)
	cost := func(c Config, cols []int, x int) float64 {
		s := 0.0
		for _, f := range cols {
			b := c.LogicalPosition(f, x)
			m := math.Ldexp(1, b)
			s += m * m
		}
		return s
	}
	for trial := 0; trial < 300; trial++ {
		nfm := rng.Intn(5) + 1
		c := cfg32(nfm)
		k := rng.Intn(4) + 1
		cols := stats.SampleDistinct(rng, 32, k)
		x, _ := c.BestX(cols)
		best := cost(c, cols, x)
		for cand := 0; cand < c.NumSegments(); cand++ {
			if cc := cost(c, cols, cand); cc < best-1e-9 {
				t.Fatalf("nFM=%d cols=%v: BestX=%d cost %g beaten by x=%d cost %g",
					nfm, cols, x, best, cand, cc)
			}
		}
	}
}

func TestResidualPositionsSingleFaultBound(t *testing.T) {
	// For any single fault the residual magnitude obeys the 2^(S-1) bound.
	for nfm := 1; nfm <= 5; nfm++ {
		c := cfg32(nfm)
		for f := 0; f < 32; f++ {
			res := c.ResidualPositions([]int{f})
			if len(res) != 1 {
				t.Fatalf("nFM=%d: %d residuals for one fault", nfm, len(res))
			}
			if res[0] >= c.SegmentSize() {
				t.Errorf("nFM=%d f=%d: residual position %d >= S", nfm, f, res[0])
			}
		}
	}
}

func TestRotateWriteReadInverse(t *testing.T) {
	f := func(v uint64, xRaw uint8, nfmRaw uint8) bool {
		nfm := int(nfmRaw)%5 + 1
		c := cfg32(nfm)
		x := int(xRaw) % c.NumSegments()
		r, m := newRotation(32, c.ShiftForX(x)), bits.Mask(32)
		v &= m
		return r.read(r.write(v, m), m) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRotationMatchesBitsOracle pins the shift-pair rotation to
// bits.RotateRight (write) and bits.RotateLeft (read) at every width from
// 2 to 64 and every amount below it, on words with bits set above the
// width too; then, for every valid configuration and every FM-LUT value,
// a Shuffled memory must store bits.RotateRight of the datum and read
// the datum back.
func TestRotationMatchesBitsOracle(t *testing.T) {
	rng := stats.NewRand(5)
	vals := []uint64{0, 1, ^uint64(0), 1 << 63, 0x8000000000000001}
	for i := 0; i < 24; i++ {
		vals = append(vals, rng.Uint64())
	}
	for w := 2; w <= 64; w++ {
		m := bits.Mask(w)
		for amt := 0; amt < w; amt++ {
			r := newRotation(w, amt)
			for _, v := range vals {
				if got, want := r.write(v, m), bits.RotateRight(v, w, amt); got != want {
					t.Fatalf("w %d T %d: write(%#x) = %#x, want %#x", w, amt, v, got, want)
				}
				if got, want := r.read(v, m), bits.RotateLeft(v, w, amt); got != want {
					t.Fatalf("w %d T %d: read(%#x) = %#x, want %#x", w, amt, v, got, want)
				}
			}
		}
	}
	for w := 2; w <= 64; w *= 2 {
		for nfm := 1; (1 << nfm) <= w; nfm++ {
			c := Config{Width: w, NFM: nfm}
			s, err := NewShuffled(c, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < c.NumSegments(); x++ {
				setX(s.LUT(), 0, x)
				for _, v := range vals {
					s.WriteWide(0, v)
					if got, want := s.Array().Peek(0), bits.RotateRight(v, w, c.ShiftForX(x)); got != want {
						t.Fatalf("%+v x %d: stored %#x for %#x, want %#x", c, x, got, v, want)
					}
					if got, want := s.ReadWide(0), v&bits.Mask(w); got != want {
						t.Fatalf("%+v x %d: read back %#x, want %#x", c, x, got, want)
					}
				}
			}
		}
	}
}

func TestFMLUTBuildAndProgram(t *testing.T) {
	c := cfg32(5)
	faults := fault.Map{
		{Row: 0, Col: 31, Kind: fault.Flip},
		{Row: 2, Col: 3, Kind: fault.Flip},
	}
	lut, err := BuildFMLUT(c, 4, faults)
	if err != nil {
		t.Fatal(err)
	}
	if lut.X(0) != 31 {
		t.Errorf("row 0 x = %d, want 31", lut.X(0))
	}
	if lut.X(1) != 0 {
		t.Errorf("clean row x = %d, want 0", lut.X(1))
	}
	if lut.X(2) != 3 {
		t.Errorf("row 2 x = %d, want 3", lut.X(2))
	}
	if lut.Shift(2) != 29 {
		t.Errorf("row 2 T = %d, want 29", lut.Shift(2))
	}
	if lut.Shift(1) != 0 {
		t.Errorf("clean row T = %d, want 0", lut.Shift(1))
	}
	setX(lut, 1, 7)
	if lut.X(1) != 7 || lut.Shift(1) != 25 {
		t.Errorf("row 1 programmed to x 7: x = %d, T = %d", lut.X(1), lut.Shift(1))
	}
	if lut.Rows() != 4 || lut.StorageBits() != 4*5 {
		t.Errorf("rows=%d storage=%d", lut.Rows(), lut.StorageBits())
	}
}

func TestBuildFMLUTRejectsBadInput(t *testing.T) {
	if _, err := BuildFMLUT(Config{Width: 31, NFM: 1}, 4, nil); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := BuildFMLUT(cfg32(1), 4, fault.Map{{Row: 9, Col: 0}}); err == nil {
		t.Error("out-of-range fault accepted")
	}
}
