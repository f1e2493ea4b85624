package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"faultmem/internal/memstore"
	"faultmem/internal/stats"
)

// defaultRSortKeys is the default key count: two 4096-word pages of the
// 16 KB macro, so the array experiences the fault map twice.
const defaultRSortKeys = 8192

// rsortWorkload is resilient sorting under memory faults in the
// small-safe-memory model (Kopelowitz & Talmon): the key array lives in
// the faulty memory, while the safe memory holds only the algorithm's
// control state — O(n) words of indices but zero key values. Every
// comparison reads the (possibly corrupted) key from unreliable
// storage, so a single faulty cell can misplace many keys; protection
// arms that bound the error magnitude bound the displacement. Quality
// is the fraction of keys placed at their fault-free position.
//
// The trial's permutation is the order of the read-back snapshot by
// (value, index), a strict total order, so every correct sort returns
// the same one. RunTrial builds it from the clean order in O(n + c log
// c) for c changed keys: the keys whose value the round trip left
// alone keep their clean relative order, so only the changed ones are
// sorted, then merged back in.
type rsortWorkload struct{}

func (rsortWorkload) Name() string   { return "rsort" }
func (rsortWorkload) Metric() string { return "Correctly Placed Keys" }

// rsortInstance is read-only after Prepare: the clean keys, their
// fault-free sorted order, and the position each key occupies in it.
type rsortInstance struct {
	keys  []float64 // clean keys, codec-exact (quantization round-trips bit-identically)
	order []int     // order[pos] = index of the key at fault-free sorted position pos
	place []int     // place[j] = fault-free sorted position of keys[j]
}

// rsortScratch is the per-shard safe-memory working set: the indices of
// the keys the round trip changed.
type rsortScratch struct {
	changed []int
}

func (w rsortWorkload) Prepare(p Params) (Instance, error) {
	n := p.Keys
	if n == 0 {
		n = defaultRSortKeys
	}
	if n < 2 {
		return nil, fmt.Errorf("workload: rsort needs at least 2 keys, got %d", n)
	}
	inst := &rsortInstance{keys: make([]float64, n), order: make([]int, n), place: make([]int, n)}
	rng := stats.Derive(p.Seed, 77)
	codec := memstore.DefaultCodec()
	for i := range inst.keys {
		// Snap each key to the fixed-point grid so storing it in a
		// fault-free memory reads back bit-identically: a no-fault trial
		// then scores exactly 1.0.
		inst.keys[i] = codec.Decode(codec.Encode(rng.Float64()*2000 - 1000))
	}
	// The fault-free placement, with index tie-break — the same total
	// order the trial sort uses, so equal keys cannot cost quality.
	order := inst.order
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return less(inst.keys, order[a], order[b]) })
	for pos, j := range order {
		inst.place[j] = pos
	}
	return inst, nil
}

func (inst *rsortInstance) Metric() string { return "Correctly Placed Keys" }
func (inst *rsortInstance) Clean() float64 { return 1 }

func (inst *rsortInstance) StoreOn(ws *Workspace) {
	ws.Codec.EncodeValuesInto(&ws.Store, inst.keys)
}

func (inst *rsortInstance) RunTrial(ws *Workspace, _ *rand.Rand) (float64, error) {
	vals := ws.TripValues()
	n := len(inst.keys)
	if len(vals) != n {
		return 0, fmt.Errorf("workload: rsort round trip returned %d values for %d keys", len(vals), n)
	}
	s, ok := ws.Scratch.(*rsortScratch)
	if !ok {
		s = &rsortScratch{}
		ws.Scratch = s
	}
	if cap(s.changed) < n {
		s.changed = make([]int, 0, n)
	}
	changed := s.changed[:0]
	for j, v := range vals {
		if v != inst.keys[j] {
			changed = append(changed, j)
		}
	}
	slices.SortFunc(changed, func(a, b int) int {
		// The order is strict: no two distinct keys compare equal.
		if less(vals, a, b) {
			return -1
		}
		return 1
	})
	// Merge the changed keys into the unchanged ones, which the clean
	// order already holds in (value, index) order, scoring each key as
	// it takes its position.
	correct, pos, c := 0, 0, 0
	for _, j := range inst.order {
		if vals[j] != inst.keys[j] {
			continue
		}
		for ; c < len(changed) && less(vals, changed[c], j); c++ {
			if inst.place[changed[c]] == pos {
				correct++
			}
			pos++
		}
		if inst.place[j] == pos {
			correct++
		}
		pos++
	}
	for ; c < len(changed); c++ {
		if inst.place[changed[c]] == pos {
			correct++
		}
		pos++
	}
	return float64(correct) / float64(n), nil
}

// less orders indices a-before-b by value with index tie-break: the
// unique total order of both the trial's permutation and the fault-free
// placement.
func less(vals []float64, a, b int) bool {
	if vals[a] != vals[b] {
		return vals[a] < vals[b]
	}
	return a < b
}
