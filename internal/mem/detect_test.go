package mem

import (
	"testing"

	"faultmem/internal/fault"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
)

func TestDUESetBasics(t *testing.T) {
	var s DUESet
	s.Reset(130) // crosses two word boundaries
	if s.Len() != 130 || s.Any() || s.Count() != 0 {
		t.Fatalf("fresh set: len %d any %v count %d", s.Len(), s.Any(), s.Count())
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Set(i)
	}
	if !s.Any() || s.Count() != 5 {
		t.Fatalf("count %d, want 5", s.Count())
	}
	if s.Get(1) || !s.Get(63) || !s.Get(129) || s.Get(-1) || s.Get(130) {
		t.Fatal("Get disagrees with Set")
	}
	got := []int{}
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		got = append(got, i)
	}
	want := []int{0, 63, 64, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk %v, want %v", got, want)
		}
	}
	s.Clear(64)
	if s.Get(64) || s.Count() != 4 {
		t.Fatal("Clear did not unflag")
	}
	// Reset to a smaller size clears every bit.
	s.Reset(10)
	if s.Any() || s.Len() != 10 {
		t.Fatal("Reset left stale flags")
	}
	if s.NextSet(0) != -1 {
		t.Fatal("NextSet on empty set")
	}
}

func TestDUESetBoundsPanic(t *testing.T) {
	var s DUESet
	s.Reset(5)
	for _, f := range []func(){func() { s.Set(5) }, func() { s.Set(-1) }, func() { s.Clear(5) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range index accepted")
				}
			}()
			f()
		}()
	}
}

// checkedMem is the facet the scalar/batch agreement test exercises
// (Raw has no decode Stats; the comparison picks those up via an
// optional assertion).
type checkedMem interface {
	Word32
	Array() *sram.Array
}

type statser interface{ Stats() Stats }

// detectTestWords fills a deterministic pattern hitting every bit.
func detectTestWords(n int) []uint32 {
	w := make([]uint32, n)
	x := uint32(0x9e3779b9)
	for i := range w {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		w[i] = x
	}
	return w
}

// TestCheckedScalarBatchAgree pins the checked-read contract on the
// SECDED arms: ReadChecked (word at a time) and ReadBatch with a flag
// set must return identical data, identical per-word DUE flags, and
// identical Stats tallies — under mixed persistent faults, double
// faults, check-bit faults, coupling faults, and transient read noise.
// This is the verification of the PECC upper-half decode in
// particular: its batch path splits the row into raw low half and
// decoded high half, and any divergence from the scalar decode shows
// up here.
func TestCheckedScalarBatchAgree(t *testing.T) {
	const rows = 64
	singles := func() fault.Map {
		kinds := []fault.Kind{fault.Flip, fault.StuckAt0, fault.StuckAt1}
		fm := make(fault.Map, 0, rows)
		for i := 0; i < rows; i++ {
			fm = append(fm, fault.Fault{Row: i, Col: (i * 11) % 32, Kind: kinds[i%3]})
		}
		return fm
	}()
	// Double faults per word, both halves: rows 0..15 pair upper-half
	// columns (PECC DUE territory), rows 16..31 pair lower+upper (PECC
	// sees one decode error + raw corruption).
	doubles := func() fault.Map {
		kinds := []fault.Kind{fault.Flip, fault.StuckAt0, fault.StuckAt1}
		var fm fault.Map
		for i := 0; i < 16; i++ {
			fm = append(fm, fault.Fault{Row: i, Col: 16 + i, Kind: kinds[i%3]})
			fm = append(fm, fault.Fault{Row: i, Col: 16 + (i+5)%16, Kind: kinds[(i+1)%3]})
		}
		for i := 16; i < 32; i++ {
			fm = append(fm, fault.Fault{Row: i, Col: i % 16, Kind: kinds[i%3]})
			fm = append(fm, fault.Fault{Row: i, Col: 16 + i%16, Kind: kinds[(i+2)%3]})
		}
		return fm
	}()
	checkFaults := fault.Map{
		{Row: 2, Col: 0, Kind: fault.Flip},
		{Row: 3, Col: 1, Kind: fault.Flip},
		{Row: 3, Col: 4, Kind: fault.StuckAt1},
	}

	type build func() (checkedMem, error)
	cases := []struct {
		name      string
		scalar    build
		batch     build
		couplings bool
		transient float64
	}{
		{
			name:   "ECC/singles",
			scalar: func() (checkedMem, error) { return NewECC(rows, singles, nil) },
			batch:  func() (checkedMem, error) { return NewECC(rows, singles, nil) },
		},
		{
			name:   "ECC/doubles+check",
			scalar: func() (checkedMem, error) { return NewECC(rows, doubles, checkFaults) },
			batch:  func() (checkedMem, error) { return NewECC(rows, doubles, checkFaults) },
		},
		{
			name:      "ECC/couplings",
			scalar:    func() (checkedMem, error) { return NewECC(rows, singles, nil) },
			batch:     func() (checkedMem, error) { return NewECC(rows, singles, nil) },
			couplings: true,
		},
		{
			name:      "ECC/transient",
			scalar:    func() (checkedMem, error) { return NewECC(rows, singles, nil) },
			batch:     func() (checkedMem, error) { return NewECC(rows, singles, nil) },
			transient: 0.05,
		},
		{
			name:   "PECC/singles",
			scalar: func() (checkedMem, error) { return NewPECC(rows, singles, nil) },
			batch:  func() (checkedMem, error) { return NewPECC(rows, singles, nil) },
		},
		{
			name:   "PECC/doubles+check",
			scalar: func() (checkedMem, error) { return NewPECC(rows, doubles, checkFaults) },
			batch:  func() (checkedMem, error) { return NewPECC(rows, doubles, checkFaults) },
		},
		{
			name:      "PECC/couplings",
			scalar:    func() (checkedMem, error) { return NewPECC(rows, singles, nil) },
			batch:     func() (checkedMem, error) { return NewPECC(rows, singles, nil) },
			couplings: true,
		},
		{
			name:      "PECC/transient",
			scalar:    func() (checkedMem, error) { return NewPECC(rows, singles, nil) },
			batch:     func() (checkedMem, error) { return NewPECC(rows, singles, nil) },
			transient: 0.05,
		},
		{
			name:   "Raw/never-flags",
			scalar: func() (checkedMem, error) { return NewRaw(rows, doubles) },
			batch:  func() (checkedMem, error) { return NewRaw(rows, doubles) },
		},
	}

	words := detectTestWords(rows)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scalar, err := tc.scalar()
			if err != nil {
				t.Fatal(err)
			}
			batch, err := tc.batch()
			if err != nil {
				t.Fatal(err)
			}
			if tc.couplings {
				// Physical coordinates inside every arm's array width; the
				// victims sit in other rows so writes corrupt cells outside
				// the fault map — corruption only detection can see.
				cs := []fault.Coupling{
					{AggRow: 5, AggCol: 3, VicRow: 6, VicCol: 20, Trigger: fault.Rise},
					{AggRow: 5, AggCol: 4, VicRow: 6, VicCol: 25, Trigger: fault.Rise},
					{AggRow: 9, AggCol: 1, VicRow: 40, VicCol: 7, Trigger: fault.Fall},
				}
				for _, m := range []checkedMem{scalar, batch} {
					if err := m.Array().SetCouplings(cs); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.transient > 0 {
				scalar.Array().SetTransient(tc.transient, stats.NewRand(17))
				batch.Array().SetTransient(tc.transient, stats.NewRand(17))
			}

			// Identical stored state via the same scalar write order.
			for i, w := range words {
				scalar.Write(i, w)
				batch.Write(i, w)
			}

			scalarVals := make([]uint32, rows)
			scalarDue := make([]bool, rows)
			for i := range scalarVals {
				scalarVals[i], scalarDue[i] = scalar.ReadChecked(i)
			}
			var due DUESet
			due.Reset(rows)
			batchVals := make([]uint32, rows)
			batch.ReadBatch(0, batchVals, &due, 0)

			flagged := 0
			for i := range scalarVals {
				if scalarVals[i] != batchVals[i] {
					t.Fatalf("word %d: scalar %#08x vs batch %#08x", i, scalarVals[i], batchVals[i])
				}
				if scalarDue[i] != due.Get(i) {
					t.Fatalf("word %d: scalar due %v vs batch due %v", i, scalarDue[i], due.Get(i))
				}
				if scalarDue[i] {
					flagged++
				}
			}
			if st, ok := scalar.(statser); ok {
				ss, bs := st.Stats(), batch.(statser).Stats()
				if ss != bs {
					t.Fatalf("stats diverge: scalar %+v vs batch %+v", ss, bs)
				}
				if got := int(ss.Uncorrectable); got != flagged {
					t.Fatalf("flagged %d words but tallied %d uncorrectable", flagged, got)
				}
			} else if flagged != 0 {
				t.Fatalf("codeless memory flagged %d words", flagged)
			}

			// An offset batch with a non-zero flag base must land flags at
			// base+i and accumulate over already-set bits.
			const off, n, base = 17, 30, 100
			var due2 DUESet
			due2.Reset(base + n)
			due2.Set(base) // pre-set: checked reads must never clear
			batch.ReadBatch(off, batchVals[:n], &due2, base)
			for i := 0; i < n; i++ {
				v, d := scalar.ReadChecked(off + i)
				if tc.transient > 0 {
					// Fresh noise draws: values may differ, flags still only
					// come from the decoder, so just confirm no panic and
					// move on.
					_ = v
					continue
				}
				if v != batchVals[i] {
					t.Fatalf("offset word %d: scalar %#08x vs batch %#08x", off+i, v, batchVals[i])
				}
				if i != 0 && d != due2.Get(base+i) {
					t.Fatalf("offset word %d: scalar due %v vs batch due %v", off+i, d, due2.Get(base+i))
				}
			}
			if !due2.Get(base) {
				t.Fatal("checked batch read cleared a pre-set flag")
			}
		})
	}
}
