package workload

import (
	"testing"

	"faultmem/internal/fault"
	"faultmem/internal/mem"
)

// mergeSortByValue bottom-up merge sorts the identity permutation into
// idx, ordering indices by vals (index tie-break), using tmp as the
// merge buffer: the reference full sort whose permutation RunTrial's
// merge against the clean order must reproduce.
func mergeSortByValue(idx, tmp []int, vals []float64) {
	n := len(vals)
	for i := range idx[:n] {
		idx[i] = i
	}
	src, dst := idx[:n], tmp[:n]
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				switch {
				case i >= mid:
					dst[k] = src[j]
					j++
				case j >= hi:
					dst[k] = src[i]
					i++
				case less(vals, src[j], src[i]):
					dst[k] = src[j]
					j++
				default:
					dst[k] = src[i]
					i++
				}
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx[:n], src)
	}
}

// TestRSortQualityMatchesNaiveOracle pins the resilient-sort quality,
// which RunTrial computes by merging the changed keys into the clean
// order, to an independent recount: a full merge sort of the read-back
// keys under the same (value, index) order, counting the keys that
// landed on their fault-free position. The memories are raw, with a
// fault in every row (pages of 16 and 96 rows, so most keys change) or
// in every 37th of 4096 rows (a few percent change), at key counts on
// and off a power of two; the round trip is deterministic for
// persistent faults, so the recount sees the trial's corruption.
func TestRSortQualityMatchesNaiveOracle(t *testing.T) {
	wl, err := RSort.Workload()
	if err != nil {
		t.Fatal(err)
	}
	sparse := func(rows, every int) fault.Map {
		var fm fault.Map
		for _, f := range mixedFaultMap(rows) {
			if f.Row%every == 0 {
				fm = append(fm, f)
			}
		}
		return fm
	}
	maps := map[int]fault.Map{16: mixedFaultMap(16), 96: mixedFaultMap(96), 4096: sparse(4096, 37)}
	for _, keys := range []int{2, 3, 777, 2048} {
		prepared, err := wl.Prepare(Params{Seed: 11, Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		inst := prepared.(*rsortInstance)
		for _, rows := range []int{16, 96, 4096} {
			m, err := mem.NewRaw(rows, maps[rows])
			if err != nil {
				t.Fatal(err)
			}
			ws := testWorkspace()
			inst.StoreOn(&ws)
			ws.Mem = m
			q, err := inst.RunTrial(&ws, nil)
			if err != nil {
				t.Fatal(err)
			}
			if keys >= 777 && q == 1 {
				t.Fatalf("%d keys, %d rows: quality 1, so the faults moved no key and the oracle proves nothing", keys, rows)
			}
			vals := append([]float64(nil), ws.Codec.RoundTripCachedValues(&ws.Store, ws.Mem, nil)...)
			idx, tmp := make([]int, keys), make([]int, keys)
			mergeSortByValue(idx, tmp, vals)
			correct := 0
			for pos, j := range idx {
				if inst.place[j] == pos {
					correct++
				}
			}
			if want := float64(correct) / float64(keys); q != want {
				t.Errorf("%d keys, %d rows: trial quality %v != merge-sort recount %v", keys, rows, q, want)
			}
		}
	}
}
