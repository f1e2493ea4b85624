package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"faultmem/internal/bits"
	"faultmem/internal/fault"
	"faultmem/internal/stats"
)

func TestShuffledFaultFreeRoundTrip(t *testing.T) {
	s, err := NewShuffled(cfg32(3), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(addr uint8, v uint32) bool {
		a := int(addr) % 16
		s.Write(a, v)
		return s.Read(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffledSingleFaultErrorBound(t *testing.T) {
	// The paper's headline guarantee: with one fault per word, the
	// read-back error magnitude is at most 2^(S-1), for every fault
	// position, every datum, and every nFM.
	rng := stats.NewRand(77)
	for nfm := 1; nfm <= 5; nfm++ {
		c := cfg32(nfm)
		for fpos := 0; fpos < 32; fpos++ {
			m := fault.Map{{Row: 0, Col: fpos, Kind: fault.Flip}}
			s, err := NewShuffled(c, 1, m)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				v := uint32(rng.Uint64())
				s.Write(0, v)
				got := s.Read(0)
				magnitude := bits.ErrorMagnitude2c(uint64(v), uint64(v^got), 32)
				if magnitude > c.MaxErrorMagnitude() {
					t.Fatalf("nFM=%d fault@%d v=%#x: |error| = %d exceeds bound %d",
						nfm, fpos, v, magnitude, c.MaxErrorMagnitude())
				}
			}
		}
	}
}

func TestShuffledVsRawErrorReduction(t *testing.T) {
	// A fault at the MSB: raw memory suffers 2^31, shuffled (nFM=5)
	// suffers exactly 2^0 = 1.
	m := fault.Map{{Row: 0, Col: 31, Kind: fault.Flip}}
	s, err := NewShuffled(cfg32(5), 1, m)
	if err != nil {
		t.Fatal(err)
	}
	s.Write(0, 0)
	if got := s.Read(0); got != 1 {
		t.Errorf("shuffled read of 0 with MSB fault = %#x, want 1", got)
	}
}

func TestShuffledExactlyOneBitCorrupted(t *testing.T) {
	// A single flip fault corrupts exactly one logical bit position —
	// shuffling relocates, never duplicates, the error.
	f := func(v uint32, fRaw uint8, nfmRaw uint8) bool {
		nfm := int(nfmRaw)%5 + 1
		fpos := int(fRaw) % 32
		s, err := NewShuffled(cfg32(nfm), 1, fault.Map{{Row: 0, Col: fpos, Kind: fault.Flip}})
		if err != nil {
			return false
		}
		s.Write(0, v)
		diff := uint64(v ^ s.Read(0))
		return bits.OnesCount(diff, 32) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffledCleanRowsUnaffected(t *testing.T) {
	m := fault.Map{{Row: 3, Col: 31, Kind: fault.Flip}}
	s, err := NewShuffled(cfg32(5), 8, m)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		if a == 3 {
			continue
		}
		s.Write(a, 0xCAFEBABE)
		if got := s.Read(a); got != 0xCAFEBABE {
			t.Errorf("clean row %d corrupted: %#x", a, got)
		}
	}
}

func TestShuffledStoresShiftedBits(t *testing.T) {
	// White-box: with a fault at bit 3 and nFM=5 (the Fig. 3 bottom-word
	// example), the stored word must be the original rotated right by 29.
	m := fault.Map{{Row: 0, Col: 3, Kind: fault.Flip}}
	s, err := NewShuffled(cfg32(5), 1, m)
	if err != nil {
		t.Fatal(err)
	}
	v := uint32(0x12345678)
	s.Write(0, v)
	want := bits.RotateRight(uint64(v), 32, 29)
	if got := s.Array().Peek(0); got != want {
		t.Errorf("stored %#x, want %#x", got, want)
	}
}

func TestShuffledMultiFaultStillBestEffort(t *testing.T) {
	// Two faults in one row: the residual error must match the BestX
	// prediction and never exceed the unprotected error.
	rng := stats.NewRand(5)
	for trial := 0; trial < 100; trial++ {
		cols := stats.SampleDistinct(rng, 32, 2)
		c := cfg32(4)
		m := fault.Map{
			{Row: 0, Col: cols[0], Kind: fault.Flip},
			{Row: 0, Col: cols[1], Kind: fault.Flip},
		}
		s, err := NewShuffled(c, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		s.Write(0, 0)
		got := uint64(s.Read(0))
		want := uint64(0)
		for _, lp := range c.ResidualPositions(cols) {
			want |= 1 << uint(lp)
		}
		if got != want {
			t.Fatalf("cols=%v: residual pattern %#x, want %#x", cols, got, want)
		}
	}
}

func TestShuffledWide16(t *testing.T) {
	// Width-16 configuration via the wide accessors.
	c := Config{Width: 16, NFM: 4}
	m := fault.Map{{Row: 0, Col: 15, Kind: fault.Flip}}
	lutc, err := BuildFMLUT(c, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	_ = lutc
	s, err := NewShuffled(c, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	s.WriteWide(0, 0)
	if got := s.ReadWide(0); got != 1 {
		t.Errorf("16-bit MSB fault: read %#x, want 1", got)
	}
}

func TestNewShuffledWithLUTValidation(t *testing.T) {
	c := cfg32(2)
	lut := NewFMLUT(c, 4)
	arrWrongWidth, err := NewShuffled(Config{Width: 16, NFM: 2}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShuffledWithLUT(arrWrongWidth.Array(), lut); err == nil {
		t.Error("width mismatch accepted")
	}
	ok, err := NewShuffled(c, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShuffledWithLUT(ok.Array(), NewFMLUT(c, 8)); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, err := NewShuffledWithLUT(ok.Array(), lut); err != nil {
		t.Errorf("valid combination rejected: %v", err)
	}
}

func BenchmarkShuffledReadWrite(b *testing.B) {
	rng := stats.NewRand(1)
	m := fault.GenerateCount(rng, 4096, 32, 64, fault.Flip)
	s, err := NewShuffled(cfg32(5), 4096, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i & 4095
		s.Write(a, uint32(i))
		_ = s.Read(a)
	}
}

// setX programs one FM-LUT entry by hand, as a BIST flow writing the
// table would.
func setX(l *FMLUT, row, x int) {
	l.check(row)
	if x < 0 || x >= l.cfg.NumSegments() {
		panic(fmt.Sprintf("core: xFM %d outside [0,%d)", x, l.cfg.NumSegments()))
	}
	l.x[row] = uint8(x)
}

// referenceX is the FM-LUT programming rule written out independently
// of Reprogram: group the faults by row with fault.Map.ByRow (columns
// ascending) and give every faulty row BestXCode of its columns.
func referenceX(cfg Config, rows int, faults fault.Map) []int {
	x := make([]int, rows)
	for row, cols := range faults.ByRow() {
		x[row] = cfg.BestXCode(cols)
	}
	return x
}

// TestReprogramMatchesBuildFMLUT pins the in-place rebuild and the
// fresh build against the reference rule, over maps whose faulty rows
// hold one to five faults (where the per-row column ordering fed to
// BestXCode matters), at every nFM.
func TestReprogramMatchesBuildFMLUT(t *testing.T) {
	const rows = 32
	rng := rand.New(rand.NewSource(51))
	for nfm := 1; nfm <= 5; nfm++ {
		cfg := cfg32(nfm)
		lut := NewFMLUT(cfg, rows)
		perRow := map[int]bool{}
		for rep := 0; rep < 40; rep++ {
			var fm fault.Map
			for _, r := range rng.Perm(rows)[:1+rng.Intn(12)] {
				n := 1 + rng.Intn(5)
				perRow[n] = true
				for _, c := range stats.SampleDistinct(rng, 32, n) {
					fm = append(fm, fault.Fault{Row: r, Col: c, Kind: fault.Flip})
				}
			}
			rng.Shuffle(len(fm), func(i, j int) { fm[i], fm[j] = fm[j], fm[i] })
			want := referenceX(cfg, rows, fm)
			built, err := BuildFMLUT(cfg, rows, fm)
			if err != nil {
				t.Fatal(err)
			}
			if err := lut.Reprogram(fm); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rows; r++ {
				if lut.X(r) != want[r] || built.X(r) != want[r] {
					t.Fatalf("nFM %d rep %d row %d: Reprogram x=%d, BuildFMLUT x=%d, reference x=%d",
						nfm, rep, r, lut.X(r), built.X(r), want[r])
				}
			}
		}
		if len(perRow) != 5 {
			t.Fatalf("nFM %d: rows held %v faults, want every count 1..5", nfm, perRow)
		}
	}
}

// TestBestXCodeSingleFault pins the shortcut Reprogram takes for a row
// with one fault: BestXCode of the single column f is f / SegmentSize(),
// at every power-of-two width, every nFM and every column.
func TestBestXCodeSingleFault(t *testing.T) {
	for w := 2; w <= 64; w *= 2 {
		for nfm := 1; 1<<nfm <= w; nfm++ {
			c := Config{Width: w, NFM: nfm}
			for f := 0; f < w; f++ {
				if got, want := c.BestXCode([]int{f}), f/c.SegmentSize(); got != want {
					t.Fatalf("%+v: BestXCode([%d]) = %d, want %d", c, f, got, want)
				}
			}
		}
	}
}

// TestReprogramRejectsAndKeepsTable pins that a rejected map, out of
// range or with a cell listed twice, leaves every entry as it was.
func TestReprogramRejectsAndKeepsTable(t *testing.T) {
	cfg := cfg32(3)
	lut := NewFMLUT(cfg, 8)
	installed := fault.Map{{Row: 1, Col: 31}, {Row: 4, Col: 9}, {Row: 4, Col: 20}}
	if err := lut.Reprogram(installed); err != nil {
		t.Fatal(err)
	}
	want := referenceX(cfg, 8, installed)
	for _, m := range []fault.Map{
		{{Row: 2, Col: 30}, {Row: 0, Col: 99}},
		{{Row: 2, Col: 30}, {Row: 8, Col: 0}},
		{{Row: -1, Col: 0}},
		{{Row: 2, Col: 30}, {Row: 5, Col: 1}, {Row: 2, Col: 30, Kind: fault.StuckAt1}},
	} {
		if err := lut.Reprogram(m); err == nil {
			t.Fatalf("Reprogram accepted %v", m)
		}
		for r := range want {
			if lut.X(r) != want[r] {
				t.Fatalf("after rejecting %v: row %d x=%d, want %d", m, r, lut.X(r), want[r])
			}
		}
	}
	if _, err := BuildFMLUT(cfg, 8, fault.Map{{Row: 3, Col: 3}, {Row: 3, Col: 3}}); err == nil {
		t.Error("BuildFMLUT accepted a duplicate cell")
	}
}

// TestShuffledResetMatchesFreshBuild pins Shuffled.Reset: a reused
// memory must read and write exactly like a freshly built one.
func TestShuffledResetMatchesFreshBuild(t *testing.T) {
	cfg := cfg32(2)
	const rows = 48
	rng := rand.New(rand.NewSource(52))
	fm1 := fault.Map{{Row: 1, Col: 3, Kind: fault.Flip}, {Row: 7, Col: 31, Kind: fault.StuckAt1}}
	fm2 := fault.Map{
		{Row: 2, Col: 14, Kind: fault.StuckAt0},
		{Row: 2, Col: 29, Kind: fault.Flip},
		{Row: 40, Col: 0, Kind: fault.Flip},
	}
	reused, err := NewShuffled(cfg, rows, fm1)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < rows; a++ {
		reused.Write(a, rng.Uint32())
	}
	if err := reused.Reset(fm2); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewShuffled(cfg, rows, fm2)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < rows; a++ {
		v := rng.Uint32()
		reused.Write(a, v)
		fresh.Write(a, v)
		if g, w := reused.Read(a), fresh.Read(a); g != w {
			t.Fatalf("addr %d after Reset reads %#x, fresh build reads %#x", a, g, w)
		}
	}
}

// TestShuffledResetWarmZeroAlloc pins the hot-loop property.
func TestShuffledResetWarmZeroAlloc(t *testing.T) {
	cfg := cfg32(2)
	fm := fault.Map{{Row: 3, Col: 7, Kind: fault.Flip}, {Row: 3, Col: 19, Kind: fault.Flip}}
	s, err := NewShuffled(cfg, 48, fm)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(fm); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, func() {
		if err := s.Reset(fm); err != nil {
			t.Error(err)
		}
	}); a != 0 {
		t.Errorf("warm Shuffled.Reset allocates %v/run, want 0", a)
	}
}
