package exp

import (
	"slices"
	"testing"

	"faultmem/internal/fault"
	"faultmem/internal/mem"
	"faultmem/internal/stats"
)

// TestArmResetRejectsAndKeepsState pins the Resetter contract for a
// rejected map on every protection arm: whether a fault lies outside
// the memory, a cell is listed twice or a kind is unknown, and wherever
// the bad fault sits in the map, Reset returns an error and every word
// reads back as before, the installed fault map is unchanged, and so
// are the decode statistics.
func TestArmResetRejectsAndKeepsState(t *testing.T) {
	const rows = 48
	installed := mixedFaultMap(rows)[:rows/2]
	fresh := fault.Map{
		{Row: rows - 1, Col: 31, Kind: fault.StuckAt1},
		{Row: rows - 2, Col: 30, Kind: fault.Flip},
		{Row: 3, Col: 17, Kind: fault.StuckAt0},
	}
	bad := map[string]fault.Map{
		"row out of range":    append(fresh.Clone(), fault.Fault{Row: rows, Col: 0}),
		"negative row":        append(fresh.Clone(), fault.Fault{Row: -1, Col: 0}),
		"column out of range": append(fresh.Clone(), fault.Fault{Row: 5, Col: 32}),
		"negative column":     append(fresh.Clone(), fault.Fault{Row: 5, Col: -1}),
		"duplicate":           append(fresh.Clone(), fault.Fault{Row: 3, Col: 17, Kind: fault.Flip}),
		"unknown kind":        append(fault.Map{{Row: 7, Col: 2, Kind: fault.Kind(9)}}, fresh...),
	}
	words := testWords(rows)
	for _, arm := range AllProtections() {
		for name, m := range bad {
			built, err := arm.Build(rows, installed)
			if err != nil {
				t.Fatalf("%v: build: %v", arm, err)
			}
			rs, ok := built.(mem.Resetter)
			if !ok {
				t.Fatalf("%v: not a mem.Resetter", arm)
			}
			for i, w := range words {
				built.Write(i, w)
			}
			before := make([]uint32, rows)
			for i := range before {
				before[i] = built.Read(i)
			}
			faults := built.(arrayer).Array().Faults()
			var st mem.Stats
			if s, ok := built.(statser); ok {
				st = s.Stats()
			}
			if err := rs.Reset(m); err == nil {
				t.Fatalf("%v: %s: Reset accepted %v", arm, name, m)
			}
			if s, ok := built.(statser); ok && s.Stats() != st {
				t.Fatalf("%v: %s: decode stats %+v after the rejected map, %+v before", arm, name, s.Stats(), st)
			}
			if got := built.(arrayer).Array().Faults(); !slices.Equal(got, faults) {
				t.Fatalf("%v: %s: installed map %v after the rejected map, %v before", arm, name, got, faults)
			}
			for i, want := range before {
				if got := built.Read(i); got != want {
					t.Fatalf("%v: %s: word %d reads %#08x after the rejected map, %#08x before", arm, name, i, got, want)
				}
			}
			// The installed map still governs writes.
			for i, w := range words {
				built.Write(i, ^w)
			}
			twin, err := arm.Build(rows, installed)
			if err != nil {
				t.Fatalf("%v: build: %v", arm, err)
			}
			for i, w := range words {
				twin.Write(i, ^w)
				if got, want := built.Read(i), twin.Read(i); got != want {
					t.Fatalf("%v: %s: rewritten word %d reads %#08x, a fresh build %#08x", arm, name, i, got, want)
				}
			}
		}
	}
}

// BenchmarkArmReset times one warm Reset per protection arm on the
// paper's 4096-word memory, alternating between two dies drawn at
// Pcell 1e-3 (about 131 faults each), so every call clears the
// previous die's rows and programs the next one's.
func BenchmarkArmReset(b *testing.B) {
	const rows, pcell = 4096, 1e-3
	rng := stats.NewRand(1)
	dies := [2]fault.Map{
		fault.GeneratePcell(rng, rows, 32, pcell, fault.Flip),
		fault.GeneratePcell(rng, rows, 32, pcell, fault.Flip),
	}
	for _, arm := range AllProtections() {
		b.Run(arm.ID().String(), func(b *testing.B) {
			m, err := arm.Build(rows, dies[0])
			if err != nil {
				b.Fatal(err)
			}
			rs := m.(mem.Resetter)
			for _, d := range dies {
				if err := rs.Reset(d); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rs.Reset(dies[i&1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
