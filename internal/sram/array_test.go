package sram

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"faultmem/internal/fault"
	"faultmem/internal/stats"
)

func TestNewArrayDims(t *testing.T) {
	a := NewArray(8, 32)
	if a.Rows() != 8 || a.Width() != 32 || a.Cells() != 256 {
		t.Fatalf("dims: rows=%d width=%d cells=%d", a.Rows(), a.Width(), a.Cells())
	}
}

func Test16KBPreset(t *testing.T) {
	a := NewArray(Rows16KB(32), 32)
	if a.Rows() != 4096 || a.Width() != 32 {
		t.Fatalf("16KB macro is %dx%d", a.Rows(), a.Width())
	}
	if Rows16KB(32) != 4096 || Rows16KB(16) != 8192 || Rows16KB(64) != 2048 {
		t.Error("Rows16KB wrong")
	}
}

func TestFaultFreeRoundTrip(t *testing.T) {
	a := NewArray(16, 32)
	f := func(row uint8, v uint64) bool {
		r := int(row) % 16
		v &= 0xFFFFFFFF
		a.Write(r, v)
		return a.Read(r) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWidthMasking(t *testing.T) {
	a := NewArray(2, 8)
	a.Write(0, 0x1FF) // 9 bits; top bit must be dropped
	if got := a.Read(0); got != 0xFF {
		t.Errorf("width mask violated: %#x", got)
	}
}

func TestFlipFault(t *testing.T) {
	a := NewArray(4, 32)
	m := fault.Map{{Row: 1, Col: 31, Kind: fault.Flip}}
	if err := a.SetFaults(m); err != nil {
		t.Fatal(err)
	}
	a.Write(1, 0)
	if got := a.Read(1); got != 1<<31 {
		t.Errorf("flip at MSB: read %#x, want %#x", got, uint64(1)<<31)
	}
	a.Write(1, 1<<31)
	if got := a.Read(1); got != 0 {
		t.Errorf("flip of stored 1: read %#x, want 0", got)
	}
	// Other rows untouched.
	a.Write(0, 0xDEADBEEF)
	if a.Read(0) != 0xDEADBEEF {
		t.Error("fault leaked to clean row")
	}
}

func TestStuckAtFaults(t *testing.T) {
	a := NewArray(2, 8)
	m := fault.Map{
		{Row: 0, Col: 0, Kind: fault.StuckAt0},
		{Row: 0, Col: 7, Kind: fault.StuckAt1},
	}
	if err := a.SetFaults(m); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 0x01) // try to store 1 in the SA0 cell, 0 in the SA1 cell
	got := a.Read(0)
	if got&1 != 0 {
		t.Errorf("SA0 cell read 1: %#x", got)
	}
	if got&0x80 == 0 {
		t.Errorf("SA1 cell read 0: %#x", got)
	}
	// Agreeing data passes through unharmed.
	a.Write(0, 0x80)
	if a.Read(0) != 0x80 {
		t.Errorf("agreeing datum corrupted: %#x", a.Read(0))
	}
}

func TestSetFaultsAppliesToExistingData(t *testing.T) {
	a := NewArray(1, 8)
	a.Write(0, 0xFF)
	if err := a.SetFaults(fault.Map{{Row: 0, Col: 3, Kind: fault.StuckAt0}}); err != nil {
		t.Fatal(err)
	}
	if got := a.Peek(0); got&(1<<3) != 0 {
		t.Errorf("stuck-at-0 did not corrupt stored data: %#x", got)
	}
}

func TestSetFaultsReplacesPrevious(t *testing.T) {
	a := NewArray(2, 8)
	if err := a.SetFaults(fault.Map{{Row: 0, Col: 0, Kind: fault.Flip}}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetFaults(fault.Map{{Row: 1, Col: 1, Kind: fault.Flip}}); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 0)
	if a.Read(0) != 0 {
		t.Error("old fault survived SetFaults")
	}
	if len(a.Faults()) != 1 {
		t.Error("Faults() not replaced")
	}
}

// TestSetFaultsRejectsInvalid pins that a rejected map, whatever the
// reason and wherever in the map the bad fault sits, leaves the array
// as it was: every row reads back what it read before, the stored
// words are untouched and Faults() still reports the installed map.
// The error is the full rebuild's: Validate's for the first fault out
// of range or listed twice, the kind error only for an otherwise valid
// map.
func TestSetFaultsRejectsInvalid(t *testing.T) {
	installed := fault.Map{
		{Row: 0, Col: 0, Kind: fault.Flip},
		{Row: 2, Col: 5, Kind: fault.StuckAt1},
		{Row: 3, Col: 7, Kind: fault.StuckAt0},
	}
	for _, c := range []struct {
		name string
		m    fault.Map
	}{
		{"row out of range", fault.Map{{Row: 1, Col: 2, Kind: fault.StuckAt1}, {Row: 5, Col: 0}}},
		{"column out of range", fault.Map{{Row: 3, Col: 1, Kind: fault.StuckAt0}, {Row: 0, Col: 8}}},
		{"negative index", fault.Map{{Row: -1, Col: 0}}},
		{"duplicate", fault.Map{{Row: 1, Col: 2, Kind: fault.StuckAt1}, {Row: 0, Col: 4}, {Row: 1, Col: 2, Kind: fault.Flip}}},
		{"unknown kind", fault.Map{{Row: 1, Col: 2, Kind: fault.Flip}, {Row: 2, Col: 0, Kind: fault.Kind(42)}}},
		{"unknown kind then stuck-at", fault.Map{{Row: 0, Col: 1, Kind: fault.Kind(42)}, {Row: 3, Col: 6, Kind: fault.StuckAt1}}},
		{"out of range before a duplicate", fault.Map{{Row: 0, Col: 1}, {Row: 9, Col: 0}, {Row: 0, Col: 1}}},
		{"duplicate before out of range", fault.Map{{Row: 0, Col: 1}, {Row: 0, Col: 1}, {Row: 9, Col: 0}}},
		{"unknown kind duplicated", fault.Map{{Row: 0, Col: 1, Kind: fault.Kind(42)}, {Row: 0, Col: 1}}},
		{"unknown kind before out of range", fault.Map{{Row: 0, Col: 1, Kind: fault.Kind(42)}, {Row: 1, Col: 99}}},
	} {
		a := NewArray(4, 8)
		if err := a.SetFaults(installed); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < a.Rows(); r++ {
			a.Write(r, 0)
		}
		var read, stored [4]uint64
		for r := range read {
			read[r], stored[r] = a.Read(r), a.Peek(r)
		}
		err := a.SetFaults(c.m)
		if err == nil {
			t.Fatalf("%s: map accepted", c.name)
		}
		if want := setFaultsFullRebuild(NewArray(4, 8), c.m); want == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %q, full rebuild %v", c.name, err, want)
		}
		for r := range read {
			if got := a.Read(r); got != read[r] {
				t.Errorf("%s: row %d reads %#x after the rejected map, %#x before", c.name, r, got, read[r])
			}
			if got := a.Peek(r); got != stored[r] {
				t.Errorf("%s: row %d stores %#x after the rejected map, %#x before", c.name, r, got, stored[r])
			}
		}
		if got := a.Faults(); !slices.Equal(got, installed) {
			t.Errorf("%s: Faults() = %v after the rejected map, want %v", c.name, got, installed)
		}
		// The masks still describe the installed map: a write meets
		// the same stuck-at cells as before.
		a.Write(3, 0xFF)
		a.Write(2, 0)
		if a.Peek(3) != 0x7F || a.Peek(2) != 1<<5 {
			t.Errorf("%s: stuck-at masks changed: rows 2, 3 store %#x, %#x", c.name, a.Peek(2), a.Peek(3))
		}
	}
}

// setFaultsFullRebuild is SetFaults as an O(rows) pass: Validate, clear
// every row's masks, set the map's bits, then apply the stuck-at
// masks to every stored word. It is the reference the O(faults)
// SetFaults is checked against.
func setFaultsFullRebuild(a *Array, m fault.Map) error {
	if err := m.Validate(a.rows, a.width); err != nil {
		return err
	}
	for _, f := range m {
		switch f.Kind {
		case fault.Flip, fault.StuckAt0, fault.StuckAt1:
		default:
			return fmt.Errorf("sram: unknown fault kind %v", f.Kind)
		}
	}
	for r := range a.flip {
		a.flip[r], a.sa0[r], a.sa1[r] = 0, 0, 0
	}
	for _, f := range m {
		b := uint64(1) << uint(f.Col)
		switch f.Kind {
		case fault.Flip:
			a.flip[f.Row] |= b
		case fault.StuckAt0:
			a.sa0[f.Row] |= b
		case fault.StuckAt1:
			a.sa1[f.Row] |= b
		}
	}
	a.faults = append(a.faults[:0], m...)
	for r := range a.data {
		a.data[r] = (a.data[r] &^ a.sa0[r]) | a.sa1[r]
	}
	return nil
}

// TestSetFaultsMatchesFullRebuild applies one random sequence of maps
// to two arrays, one through SetFaults and one through the full
// rebuild: all three kinds, rows shared with the previous map, the
// empty map and rejected maps in between. After every step the masks,
// every row's read-back, the stored words and Faults() must agree.
func TestSetFaultsMatchesFullRebuild(t *testing.T) {
	const rows, width = 64, 16
	rng := rand.New(rand.NewSource(61))
	got, want := NewArray(rows, width), NewArray(rows, width)
	kinds := []fault.Kind{fault.Flip, fault.StuckAt0, fault.StuckAt1}
	var prev fault.Map
	for step := 0; step < 400; step++ {
		var m fault.Map
		switch step % 8 {
		case 3:
			// the empty map
		case 5:
			// Rows shared with the previous map, at new columns
			// and with new kinds.
			for _, f := range prev {
				if rng.Intn(2) == 0 {
					m = append(m, fault.Fault{Row: f.Row, Col: rng.Intn(width), Kind: kinds[rng.Intn(3)]})
				}
			}
			m = dedup(m)
		default:
			n := rng.Intn(3 * rows / 2)
			m = fault.RandomKinds(rng, fault.GenerateCount(rng, rows, width, n, fault.Flip), kinds)
		}
		if step%7 == 6 && len(m) > 0 {
			// A rejected map: corrupt one fault in a random way.
			i := rng.Intn(len(m))
			switch rng.Intn(3) {
			case 0:
				m[i].Row = rows + rng.Intn(4)
			case 1:
				m = append(m, m[rng.Intn(len(m))])
			case 2:
				m[i].Kind = fault.Kind(7)
			}
		}
		errGot, errWant := got.SetFaults(m), setFaultsFullRebuild(want, m)
		if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
			t.Fatalf("step %d: SetFaults error %v, full rebuild %v", step, errGot, errWant)
		}
		if errGot == nil {
			prev = m
		}
		for r := 0; r < rows; r++ {
			if got.flip[r] != want.flip[r] || got.sa0[r] != want.sa0[r] || got.sa1[r] != want.sa1[r] {
				t.Fatalf("step %d row %d: masks (%#x,%#x,%#x), full rebuild (%#x,%#x,%#x)", step, r,
					got.flip[r], got.sa0[r], got.sa1[r], want.flip[r], want.sa0[r], want.sa1[r])
			}
			if g, w := got.Peek(r), want.Peek(r); g != w {
				t.Fatalf("step %d row %d: stores %#x, full rebuild %#x", step, r, g, w)
			}
			if g, w := got.Read(r), want.Read(r); g != w {
				t.Fatalf("step %d row %d: reads %#x, full rebuild %#x", step, r, g, w)
			}
		}
		if !slices.Equal(got.Faults(), want.Faults()) {
			t.Fatalf("step %d: Faults() %v, full rebuild %v", step, got.Faults(), want.Faults())
		}
		// New data between maps, so stuck-at faults have bits to
		// overwrite.
		for r := 0; r < rows; r++ {
			v := rng.Uint64()
			got.Write(r, v)
			want.Write(r, v)
		}
	}
}

// dedup drops every fault whose cell an earlier fault of m holds.
func dedup(m fault.Map) fault.Map {
	seen := map[[2]int]bool{}
	out := m[:0]
	for _, f := range m {
		if !seen[[2]int{f.Row, f.Col}] {
			seen[[2]int{f.Row, f.Col}] = true
			out = append(out, f)
		}
	}
	return out
}

func TestAccessCounters(t *testing.T) {
	a := NewArray(4, 32)
	a.Write(0, 1)
	a.Write(1, 2)
	_ = a.Read(0)
	r, w := a.AccessCounts()
	if r != 1 || w != 2 {
		t.Errorf("counts r=%d w=%d", r, w)
	}
	a.ResetAccessCounts()
	r, w = a.AccessCounts()
	if r != 0 || w != 0 {
		t.Error("reset failed")
	}
}

func TestFillAndFaultCountInvariant(t *testing.T) {
	// Property: with n flip faults and all-zero data, the total number of
	// set bits across all reads equals n.
	f := func(seed int64, nRaw uint8) bool {
		rng := stats.NewRand(seed)
		n := int(nRaw) % 64
		a := NewArray(32, 32)
		m := fault.GenerateCount(rng, 32, 32, n, fault.Flip)
		if err := a.SetFaults(m); err != nil {
			return false
		}
		a.Fill(0)
		total := 0
		for r := 0; r < 32; r++ {
			v := a.Read(r)
			for v != 0 {
				v &= v - 1
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
