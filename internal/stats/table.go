package stats

import (
	"fmt"
	"math"

	"faultmem/internal/mat"
)

// MaxTableIndices bounds a Table's index count: a table add reads its
// indices as uint16.
const MaxTableIndices = 1 << 16

// tableLanes is the number of arms one pass of the AVX table add
// updates, one per float64 lane of a pair of Y registers.
const tableLanes = 8

// maxLaneRun bounds the indices of an add the AVX kernel takes, so that
// a per-index count fits its uint32.
const maxLaneRun = math.MaxInt32

// Table is a per-campaign lookup of observations: every arm's value at
// each of its indices. A Monte-Carlo engine whose dies mostly take a few
// distinct values (the Fig. 5 engine's dies of one and two faults)
// scores such a die as one index and hands a block of indices to all of
// a shard's arms at once, through Accumulators.AddTable. A table built
// for a histogram geometry also holds each value's bin in it, so that
// no add bins anything.
//
// Values and bins are stored lane-major, the layout the AVX kernel
// reads: arms p*8 .. p*8+7 form pass p, and an index's values for the
// eight arms of a pass are adjacent.
type Table struct {
	arms, n int
	// vals[(p*n+i)*tableLanes+l] is arm p*tableLanes+l's value at index
	// i; lanes past the last arm hold 0.
	vals []float64
	// bins is laid out like vals and holds each value's bin in geom; it
	// is nil for a table built without a geometry.
	bins []uint32
	geom binGeometry
}

// NewTable returns the table whose arm j takes the value vals[j][i] at
// index i. There must be at least one arm, every vals[j] must hold the
// same number of values, from 1 to MaxTableIndices, and no value may be
// NaN. With a non-nil hist the table bins every value in hist's
// geometry, and only histograms of that geometry can take its adds; hist
// is read for its geometry alone.
func NewTable(vals [][]float64, hist *LogHistogram) *Table {
	if len(vals) == 0 {
		panic("stats: table without arms")
	}
	n := len(vals[0])
	if n < 1 || n > MaxTableIndices {
		panic(fmt.Sprintf("stats: table of %d indices, want 1..%d", n, MaxTableIndices))
	}
	passes := (len(vals) + tableLanes - 1) / tableLanes
	t := &Table{arms: len(vals), n: n, vals: make([]float64, passes*n*tableLanes)}
	if hist != nil {
		t.bins = make([]uint32, len(t.vals))
		t.geom = hist.geometry()
	}
	for j, arm := range vals {
		if len(arm) != n {
			panic(fmt.Sprintf("stats: table arm %d holds %d values, arm 0 %d", j, len(arm), n))
		}
		for i, x := range arm {
			if x != x {
				panic(fmt.Sprintf("stats: NaN table value of arm %d at index %d", j, i))
			}
			k := t.at(j, i)
			t.vals[k] = x
			if hist != nil {
				t.bins[k] = uint32(hist.bucket(x))
			}
		}
	}
	return t
}

// at returns the offset of arm j's value at index i in vals and bins.
func (t *Table) at(j, i int) int {
	return (j/tableLanes*t.n+i)*tableLanes + j%tableLanes
}

// TableScratch is the working memory of table adds: a count per table
// index and the list of indices one add touched. The zero value is
// ready. An add grows it to its table's size once and leaves every count
// zero, so one scratch serves any sequence of adds to tables of any size,
// one add at a time.
type TableScratch struct {
	counts  []uint32
	touched []uint16
}

// AddTable records, for every i of idx in turn, each arm's value at
// index i of t with the one weight w: a[j] ends bit for bit where
// a[j].AddBatch of arm j's gathered values would leave it. a holds one
// accumulator per arm of t, each a *WeightedCDF, which appends the
// values, or a *LogHistogram of the geometry t was built for. A wrong
// arm, an invalid weight or an index past the table panics before
// anything changes. s is the add's scratch, which it leaves all zero.
//
// When mat.UseAVX is set and the arms are histograms, no two alike
// within a pass of eight, an AVX kernel updates a pass's arms at once,
// one per lane. Each lane takes its arm's additions in the Go loop's
// order, rounded one at a time, and every add of one call adds the same
// w, so a bin's final bits depend only on how many of the call's
// observations land in it: the kernel adds w to each touched index's
// bins once per occurrence, from per-index counts, after the sums. Any
// other add updates the arms in turn in a Go loop, the reference the
// kernel must match.
func (a Accumulators) AddTable(t *Table, idx []uint16, w float64, s *TableScratch) {
	checkWeight(w)
	if len(a) != t.arms {
		panic(fmt.Sprintf("stats: %d accumulators for a table of %d arms", len(a), t.arms))
	}
	lanes := mat.UseAVX && w > 0 && len(idx) > 0 && len(idx) <= maxLaneRun
	for j, acc := range a {
		switch acc := acc.(type) {
		case *LogHistogram:
			if t.bins == nil || acc.geometry() != t.geom {
				panic(fmt.Sprintf("stats: arm %d is a histogram of another geometry than the table's", j))
			}
			for _, o := range a[j&^(tableLanes-1) : j] {
				if o, _ := o.(*LogHistogram); o == acc {
					lanes = false
				}
			}
		case *WeightedCDF:
			lanes = false
		default:
			panic(fmt.Sprintf("stats: table add to a %T", acc))
		}
	}
	if lanes {
		t.addLanes(a, idx, w, s)
		return
	}
	t.checkIndices(idx)
	if w == 0 || len(idx) == 0 {
		return
	}
	for j, acc := range a {
		switch acc := acc.(type) {
		case *LogHistogram:
			acc.addTable(t, j, idx, w)
		case *WeightedCDF:
			acc.addTable(t, j, idx, w)
		}
	}
}

// addTable appends arm j of t's values at idx (not empty) with weight
// w > 0.
func (c *WeightedCDF) addTable(t *Table, j int, idx []uint16, w float64) {
	vals := t.vals[t.at(j, 0):]
	total := c.total
	for _, i := range idx {
		c.xs = append(c.xs, vals[int(i)*tableLanes])
		c.ws = append(c.ws, w)
		total += w
	}
	c.total = total
	c.sorted = false
}

// addTable is the Go loop of a table add to arm j of t, idx not empty
// and w > 0: AddBatch's update with the table's bins.
func (h *LogHistogram) addTable(t *Table, j int, idx []uint16, w float64) {
	off := t.at(j, 0)
	vals, bins := t.vals[off:], t.bins[off:]
	wts := h.w
	total, sumX, sumXX := h.total, h.sumX, h.sumXX
	lo, hi := h.min, h.max
	for _, i := range idx {
		k := int(i) * tableLanes
		x := vals[k]
		wts[bins[k]] += w
		total += w
		sumX += w * x
		sumXX += w * x * x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	h.total, h.sumX, h.sumXX = total, sumX, sumXX
	h.min, h.max = lo, hi
	h.count += int64(len(idx))
	h.dirty = true
}

// laneState is one kernel pass's arms, one per lane: their running sums
// and extrema, and where each arm's bin weights start. Lanes past the
// last arm point at pad, with bin 0 at every index.
type laneState struct {
	total, sumX, sumXX, lo, hi [tableLanes]float64
	wts                        [tableLanes]*float64
	pad                        float64
}

// checkIndices panics at the first index of idx past t.
func (t *Table) checkIndices(idx []uint16) {
	for _, i := range idx {
		if int(i) >= t.n {
			panic(fmt.Sprintf("stats: index %d of a table of %d", i, t.n))
		}
	}
}

// countIndices adds to counts[i] the occurrences of every index i of idx
// and returns the distinct ones in order of first occurrence, in the
// front of list, which holds one slot more than counts. At the first
// index past counts it stops and returns false with what it counted so
// far.
func countIndices(counts []uint32, list, idx []uint16) (touched []uint16, ok bool) {
	n := 0
	for _, i := range idx {
		if int(i) >= len(counts) {
			return list[:n], false
		}
		c := counts[i]
		// Write every index to the slot after the last one listed, and
		// list it only if it is new: no branch to mispredict.
		list[n] = i
		if c == 0 {
			n++
		}
		counts[i] = c + 1
	}
	return list[:n], true
}

// addLanes is a table add of 1..maxLaneRun indices at weight w > 0 on
// the AVX kernel, every arm a distinct histogram of t's geometry. It counts each index's
// occurrences first, and panics there, with no arm changed, on an index
// past the table.
func (t *Table) addLanes(a Accumulators, idx []uint16, w float64, s *TableScratch) {
	if len(s.counts) < t.n {
		s.counts = make([]uint32, t.n)
		s.touched = make([]uint16, t.n+1)
	}
	counts := s.counts[:t.n]
	touched, ok := countIndices(counts, s.touched[:t.n+1], idx)
	if !ok {
		for _, i := range touched {
			counts[i] = 0
		}
		t.checkIndices(idx)
	}
	for p := 0; p*tableLanes < t.arms; p++ {
		arms := a[p*tableLanes : min(t.arms, (p+1)*tableLanes)]
		var st laneState
		for l, acc := range arms {
			h := acc.(*LogHistogram)
			st.total[l], st.sumX[l], st.sumXX[l] = h.total, h.sumX, h.sumXX
			st.lo[l], st.hi[l] = h.min, h.max
			st.wts[l] = &h.w[0]
		}
		for l := len(arms); l < tableLanes; l++ {
			st.wts[l] = &st.pad
		}
		pass := p * t.n * tableLanes
		end := pass + t.n*tableLanes
		tableAddAVX(&st, t.vals[pass:end], t.bins[pass:end], idx, touched, counts, w)
		for l, acc := range arms {
			h := acc.(*LogHistogram)
			h.total, h.sumX, h.sumXX = st.total[l], st.sumX[l], st.sumXX[l]
			h.min, h.max = st.lo[l], st.hi[l]
			h.count += int64(len(idx))
			h.dirty = true
		}
	}
	for _, i := range touched {
		counts[i] = 0
	}
}
