package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"faultmem/internal/fault"
	"faultmem/internal/stats"
)

func TestPerfectRoundTrip(t *testing.T) {
	p := NewPerfect(64)
	if p.Words() != 64 {
		t.Fatalf("Words = %d", p.Words())
	}
	f := func(addr uint8, v uint32) bool {
		a := int(addr) % 64
		p.Write(a, v)
		return p.Read(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRawExposesFaults(t *testing.T) {
	m := fault.Map{{Row: 1, Col: 31, Kind: fault.Flip}}
	r, err := NewRaw(4, m)
	if err != nil {
		t.Fatal(err)
	}
	r.Write(1, 0)
	if got := r.Read(1); got != 1<<31 {
		t.Errorf("raw read = %#x, want MSB flip", got)
	}
	if r.Words() != 4 {
		t.Errorf("Words = %d", r.Words())
	}
}

func TestRawRejectsBadMap(t *testing.T) {
	if _, err := NewRaw(4, fault.Map{{Row: 0, Col: 40}}); err == nil {
		t.Error("col 40 accepted for 32-bit data geometry")
	}
}

func TestECCCorrectsSingleFaultPerWord(t *testing.T) {
	// One fault in every word, at every possible data column: full ECC
	// must always return pristine data.
	for col := 0; col < 32; col++ {
		m := fault.Map{{Row: 0, Col: col, Kind: fault.Flip}}
		e, err := NewECC(1, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []uint32{0, 0xFFFFFFFF, 0xDEADBEEF, 1 << uint(col)} {
			e.Write(0, v)
			if got := e.Read(0); got != v {
				t.Fatalf("col %d v=%#x: ECC read %#x", col, v, got)
			}
		}
	}
}

func TestECCStatsCounting(t *testing.T) {
	m := fault.Map{{Row: 0, Col: 5, Kind: fault.Flip}}
	e, err := NewECC(2, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Write(0, 42)
	e.Write(1, 43)
	_ = e.Read(0) // corrected
	_ = e.Read(1) // clean
	st := e.Stats()
	if st.Reads != 2 || st.Corrected != 1 || st.Uncorrectable != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestECCDoubleFaultDetectedNotSilent(t *testing.T) {
	m := fault.Map{
		{Row: 0, Col: 3, Kind: fault.Flip},
		{Row: 0, Col: 27, Kind: fault.Flip},
	}
	e, err := NewECC(1, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Write(0, 0)
	got := e.Read(0)
	// SECDED cannot correct: raw payload with both flips comes back.
	want := uint32(1<<3 | 1<<27)
	if got != want {
		t.Errorf("double-fault read %#x, want %#x", got, want)
	}
	if e.Stats().Uncorrectable != 1 {
		t.Errorf("uncorrectable count %d", e.Stats().Uncorrectable)
	}
}

func TestECCCheckBitFaultTolerated(t *testing.T) {
	// A single fault in a check-bit cell must not corrupt data.
	for c := 0; c < 7; c++ {
		cf := fault.Map{{Row: 0, Col: c, Kind: fault.Flip}}
		e, err := NewECC(1, nil, cf)
		if err != nil {
			t.Fatal(err)
		}
		e.Write(0, 0xA5A5A5A5)
		if got := e.Read(0); got != 0xA5A5A5A5 {
			t.Errorf("check-bit fault %d corrupted data: %#x", c, got)
		}
	}
}

func TestECCCheckPlusDataFaultUncorrectable(t *testing.T) {
	// One data fault + one check fault in the same word = double error.
	e, err := NewECC(1,
		fault.Map{{Row: 0, Col: 10, Kind: fault.Flip}},
		fault.Map{{Row: 0, Col: 2, Kind: fault.Flip}})
	if err != nil {
		t.Fatal(err)
	}
	e.Write(0, 0)
	_ = e.Read(0)
	if e.Stats().Uncorrectable != 1 {
		t.Error("data+check double fault not flagged")
	}
}

func TestPECCUpperHalfProtected(t *testing.T) {
	// Single fault in the MSB half: P-ECC corrects it.
	for col := 16; col < 32; col++ {
		m := fault.Map{{Row: 0, Col: col, Kind: fault.Flip}}
		p, err := NewPECC(1, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Write(0, 0xFFFF0000)
		if got := p.Read(0); got != 0xFFFF0000 {
			t.Fatalf("upper fault at %d not corrected: %#x", col, got)
		}
	}
}

func TestPECCLowerHalfUnprotected(t *testing.T) {
	// Faults in the 16 LSBs pass straight through (the P-ECC weakness the
	// paper exploits in its comparison).
	for col := 0; col < 16; col++ {
		m := fault.Map{{Row: 0, Col: col, Kind: fault.Flip}}
		p, err := NewPECC(1, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Write(0, 0)
		if got := p.Read(0); got != 1<<uint(col) {
			t.Fatalf("lower fault at %d: read %#x, want %#x", col, got, 1<<uint(col))
		}
	}
}

func TestPECCTwoUpperFaultsUncorrectable(t *testing.T) {
	m := fault.Map{
		{Row: 0, Col: 20, Kind: fault.Flip},
		{Row: 0, Col: 30, Kind: fault.Flip},
	}
	p, err := NewPECC(1, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Write(0, 0)
	got := p.Read(0)
	want := uint32(1<<20 | 1<<30)
	if got != want {
		t.Errorf("double upper fault read %#x, want %#x", got, want)
	}
	if p.Stats().Uncorrectable != 1 {
		t.Error("uncorrectable not counted")
	}
}

func TestPECCMixedFaults(t *testing.T) {
	// One lower + one upper fault: upper corrected, lower persists.
	m := fault.Map{
		{Row: 0, Col: 2, Kind: fault.Flip},
		{Row: 0, Col: 29, Kind: fault.Flip},
	}
	p, err := NewPECC(1, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Write(0, 0)
	if got := p.Read(0); got != 1<<2 {
		t.Errorf("mixed faults read %#x, want %#x", got, uint32(1<<2))
	}
}

func TestPECCMaxErrorBoundedByLowerHalf(t *testing.T) {
	// Any single fault under P-ECC costs at most 2^15 (the worst
	// unprotected LSB), versus 2^31 for raw.
	f := func(colRaw uint8, v uint32) bool {
		col := int(colRaw) % 32
		p, err := NewPECC(1, fault.Map{{Row: 0, Col: col, Kind: fault.Flip}}, nil)
		if err != nil {
			return false
		}
		p.Write(0, v)
		got := p.Read(0)
		diff := uint64(v ^ got)
		return diff <= 1<<15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllSchemesAgreeWhenFaultFree(t *testing.T) {
	raw, err := NewRaw(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	eccm, err := NewECC(16, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pecc, err := NewPECC(16, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mems := []Word32{NewPerfect(16), raw, eccm, pecc}
	rng := stats.NewRand(9)
	for trial := 0; trial < 200; trial++ {
		a := rng.Intn(16)
		v := uint32(rng.Uint64())
		for _, m := range mems {
			m.Write(a, v)
			if got := m.Read(a); got != v {
				t.Fatalf("%T fault-free mismatch: %#x != %#x", m, got, v)
			}
		}
	}
}

// TestResetMatchesFreshBuild pins the mem.Resetter contract: a memory
// carried across Monte-Carlo trials and Reset with a new fault map must
// behave exactly like one freshly built with that map.
func TestResetMatchesFreshBuild(t *testing.T) {
	const rows = 64
	rng := rand.New(rand.NewSource(41))
	randomMap := func(n int) fault.Map {
		m := make(fault.Map, 0, n)
		seen := map[[2]int]bool{}
		kinds := []fault.Kind{fault.Flip, fault.StuckAt0, fault.StuckAt1}
		for len(m) < n {
			r, c := rng.Intn(rows), rng.Intn(32)
			if seen[[2]int{r, c}] {
				continue
			}
			seen[[2]int{r, c}] = true
			m = append(m, fault.Fault{Row: r, Col: c, Kind: kinds[rng.Intn(len(kinds))]})
		}
		return m
	}
	builders := []struct {
		name  string
		build func(fm fault.Map) (Word32, error)
	}{
		{"Raw", func(fm fault.Map) (Word32, error) { return NewRaw(rows, fm) }},
		{"ECC", func(fm fault.Map) (Word32, error) { return NewECC(rows, fm, nil) }},
		{"PECC", func(fm fault.Map) (Word32, error) { return NewPECC(rows, fm, nil) }},
	}
	for _, bld := range builders {
		fm1, fm2 := randomMap(10), randomMap(14)
		reused, err := bld.build(fm1)
		if err != nil {
			t.Fatalf("%s: %v", bld.name, err)
		}
		// Dirty the stored data under the first fault map.
		for a := 0; a < rows; a++ {
			reused.Write(a, rng.Uint32())
		}
		if err := reused.(Resetter).Reset(fm2); err != nil {
			t.Fatalf("%s: Reset: %v", bld.name, err)
		}
		fresh, err := bld.build(fm2)
		if err != nil {
			t.Fatalf("%s: %v", bld.name, err)
		}
		for a := 0; a < rows; a++ {
			v := rng.Uint32()
			reused.Write(a, v)
			fresh.Write(a, v)
			if g, w := reused.Read(a), fresh.Read(a); g != w {
				t.Fatalf("%s: addr %d after Reset reads %#x, fresh build reads %#x", bld.name, a, g, w)
			}
		}
	}
}

// TestResetWarmZeroAlloc pins the hot-loop property the Fig. 7 engine
// relies on: reinstalling a same-sized fault map in a warm memory does
// not touch the allocator.
func TestResetWarmZeroAlloc(t *testing.T) {
	const rows = 64
	fm := fault.Map{{Row: 3, Col: 7, Kind: fault.Flip}, {Row: 9, Col: 30, Kind: fault.Flip}}
	for _, tc := range []struct {
		name string
		m    Resetter
	}{
		{"Raw", mustRaw(rows, fm)},
		{"ECC", mustECC(rows, fm)},
		{"PECC", mustPECC(rows, fm)},
	} {
		if err := tc.m.Reset(fm); err != nil { // warm up scratch
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(10, func() {
			if err := tc.m.Reset(fm); err != nil {
				t.Error(err)
			}
		}); a != 0 {
			t.Errorf("%s: warm Reset allocates %v/run, want 0", tc.name, a)
		}
	}
}

func mustRaw(rows int, fm fault.Map) *Raw {
	m, err := NewRaw(rows, fm)
	if err != nil {
		panic(err)
	}
	return m
}

func mustECC(rows int, fm fault.Map) *ECC {
	m, err := NewECC(rows, fm, nil)
	if err != nil {
		panic(err)
	}
	return m
}

func mustPECC(rows int, fm fault.Map) *PECC {
	m, err := NewPECC(rows, fm, nil)
	if err != nil {
		panic(err)
	}
	return m
}
