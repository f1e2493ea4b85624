package yield

import (
	"fmt"
	mbits "math/bits"
	"math/rand"
	"slices"
	"sync"

	"faultmem/internal/fault"
	"faultmem/internal/stats"
)

// RowSampler draws uniform distinct-cell fault maps for a rows x width
// array directly into per-row column bitmasks, replacing the allocating
// fault.Map + ByRow() pipeline in the Monte-Carlo inner loop. One sampler
// is reused across samples: Draw resets only the rows the previous sample
// touched, so a draw of n faults costs O(n) with zero allocations.
//
// Width must be at most 64 so that a row's faulty columns fit one word —
// the representation Scheme.RowMSE consumes.
type RowSampler struct {
	rows, width int
	cells       int
	masks       []uint64 // per-row fault mask, maintained sparse
	touched     []int    // rows with >= 1 fault, in first-touch order
}

// NewRowSampler returns a sampler for a rows x width array.
func NewRowSampler(rows, width int) *RowSampler {
	if rows <= 0 || width <= 0 || width > 64 {
		panic(fmt.Sprintf("yield: bad sampler geometry %dx%d", rows, width))
	}
	return &RowSampler{
		rows:  rows,
		width: width,
		cells: rows * width,
		masks: make([]uint64, rows),
		// Worst case every fault lands on its own row; sized lazily by
		// Draw so typical fault counts never regrow it.
		touched: make([]int, 0, 256),
	}
}

// Draw replaces the sampler's contents with n faults placed uniformly at
// random over distinct cells — the same distribution as
// fault.GenerateCount — using duplicate rejection against the row masks
// themselves. It performs no allocations once touched has grown to the
// largest row count seen (pre-sized to 256 rows).
func (s *RowSampler) Draw(rng *rand.Rand, n int) {
	if n > s.cells {
		panic(fmt.Sprintf("yield: %d faults exceed %d cells", n, s.cells))
	}
	s.Reset()
	for placed := 0; placed < n; {
		cell := rng.Intn(s.cells)
		row := cell / s.width
		bit := uint64(1) << uint(cell%s.width)
		if s.masks[row]&bit != 0 {
			continue // duplicate cell: redraw
		}
		if s.masks[row] == 0 {
			s.touched = append(s.touched, row)
		}
		s.masks[row] |= bit
		placed++
	}
}

// Reset clears the sampler by zeroing only the touched rows.
func (s *RowSampler) Reset() {
	for _, r := range s.touched {
		s.masks[r] = 0
	}
	s.touched = s.touched[:0]
}

// Rows returns the faulty row indices of the current sample in
// first-touch order. The slice is owned by the sampler and valid until
// the next Draw or Reset.
func (s *RowSampler) Rows() []int { return s.touched }

// Mask returns the faulty-column bitmask of one row.
func (s *RowSampler) Mask(row int) uint64 { return s.masks[row] }

// MSE evaluates Eq. (6) for the current sample under the given scheme:
// (1/R) * sum over faulty rows of RowMSE(mask). This is the
// allocation-free equivalent of MSEFromRowFaults(fm.ByRow(), rows, s).
func (s *RowSampler) MSE(sch Scheme) float64 {
	sum := 0.0
	for _, r := range s.touched {
		sum += sch.RowMSE(s.masks[r])
	}
	return sum / float64(s.rows)
}

// armCosts holds a campaign's per-arm costs, built once from
// Scheme.RowMSE and shared read-only by every shard. At memory-scale
// Pcell nearly every faulty row holds one fault (99.99% at Fig. 5's paper
// budget), and most dies hold one or two faulty cells (70.8% and 23.2%
// there), so it keeps:
//
//   - single, the row cost of every single-fault mask, which mseAll reads
//     for such rows, calling RowMSE only for multi-fault rows;
//   - one, every arm's MSE of a die whose only fault sits in column c, at
//     index c, and two, every arm's MSE of a die of two faults, at
//     pairIndex of its cells. The engine adds a block of such dies to
//     every arm from these tables, without drawing them into a sampler.
//
// The tables hold the expressions mseAll evaluates for those dies, so
// they agree bit for bit: from zero, each faulty row's cost in
// first-touch order, then one division by the row count. A one-fault die
// is (0 + s[c]) / rows, where s[c] is RowMSE(1 << c); a die of two faults
// on two rows is ((0 + s[c1]) + s[c2]) / rows, in the order they were
// drawn; and one of two faults on one row is
// (0 + RowMSE(1<<c1 | 1<<c2)) / rows.
type armCosts struct {
	schemes []Scheme
	width   int
	// single[c*len(schemes)+j] is schemes[j].RowMSE(1 << c).
	single   []float64
	one, two *stats.Table
}

// newArmCosts builds the costs of schemes on a rows x width array, its
// tables binned in hist's geometry when hist is not nil.
func newArmCosts(schemes []Scheme, rows, width int, hist *stats.LogHistogram) *armCosts {
	n := len(schemes)
	a := &armCosts{schemes: schemes, width: width, single: make([]float64, width*n)}
	one, two := make([][]float64, n), make([][]float64, n)
	r := float64(rows)
	for j, sch := range schemes {
		one[j] = make([]float64, width)
		for c := range width {
			v := sch.RowMSE(uint64(1) << uint(c))
			a.single[c*n+j] = v
			one[j][c] = (0 + v) / r
		}
		two[j] = make([]float64, 2*width*width)
		for c1 := range width {
			for c2 := range width {
				s1, s2 := a.single[c1*n+j], a.single[c2*n+j]
				two[j][c1*width+c2] = ((0 + s1) + s2) / r
				two[j][(width+c1)*width+c2] = (0 + sch.RowMSE(uint64(1)<<uint(c1)|uint64(1)<<uint(c2))) / r
			}
		}
	}
	a.one = stats.NewTable(one, hist)
	a.two = stats.NewTable(two, hist)
	return a
}

// lastCosts is the armCosts of the most recent campaign whose schemes
// are all of this package's types. A sweep worker replays a campaign's
// engine run once for every shard it computes (exp.RunStage), and the
// tables cost more to build than a small campaign's shard costs to
// score, so the replays of one campaign share them. An armCosts is a
// pure function of its schemes (whose RowMSE is pure), the array and the
// histogram geometry, so sharing one never changes a result.
var lastCosts struct {
	sync.Mutex
	schemes     []Scheme
	rows, width int
	hist        *stats.LogHistogram
	costs       *armCosts
}

// campaignCosts returns newArmCosts(schemes, rows, width, hist), or the
// last campaign's when that was built from equal arguments.
func campaignCosts(schemes []Scheme, rows, width int, hist *stats.LogHistogram) *armCosts {
	l := &lastCosts
	l.Lock()
	costs := l.costs
	if costs == nil || l.rows != rows || l.width != width || (l.hist == nil) != (hist == nil) ||
		(hist != nil && !hist.SameGeometry(l.hist)) || !slices.Equal(l.schemes, schemes) {
		costs = nil
	}
	l.Unlock()
	if costs != nil {
		return costs
	}
	costs = newArmCosts(schemes, rows, width, hist)
	for _, s := range schemes {
		switch s.(type) {
		case Unprotected, Shuffled, FullECC, PriorityECC:
		default:
			// A foreign scheme may not be comparable, and equal values
			// of it need not score alike.
			return costs
		}
	}
	l.Lock()
	l.schemes, l.rows, l.width, l.hist, l.costs = slices.Clone(schemes), rows, width, hist, costs
	l.Unlock()
	return costs
}

// pairIndex returns the index in two of the die whose faults were drawn
// at cells c1 then c2 (distinct): c1's column times width plus c2's,
// offset by width*width when both sit on one row. (Entries of two faults
// in one cell are never read.)
func (a *armCosts) pairIndex(c1, c2 int) uint16 {
	w := uint32(a.width)
	r1, k1 := uint32(c1)/w, uint32(c1)%w
	r2, k2 := uint32(c2)/w, uint32(c2)%w
	i := k1*w + k2
	if r1 == r2 {
		i += w * w
	}
	return uint16(i)
}

// mseAll sets mse[j] to s.MSE(schemes[j]) for the current sample, bit for
// bit: each arm sums its row costs in the same first-touch row order from
// zero and divides once by the row count, and RowMSE is a pure function
// of the mask, so a tabulated cost equals a computed one.
func (a *armCosts) mseAll(s *RowSampler, mse []float64) {
	n := len(a.schemes)
	mse = mse[:n]
	for j := range mse {
		mse[j] = 0
	}
	for _, r := range s.touched {
		m := s.masks[r]
		if m&(m-1) == 0 {
			c := mbits.TrailingZeros64(m) * n
			for j, v := range a.single[c : c+n] {
				mse[j] += v
			}
			continue
		}
		for j, sch := range a.schemes {
			mse[j] += sch.RowMSE(m)
		}
	}
	rows := float64(s.rows)
	for j := range mse {
		mse[j] /= rows
	}
}

// Faults exports the current sample as a fault.Map with the given kind,
// for interop with consumers that need explicit fault coordinates (e.g.
// the redundancy-repair allocator). It allocates; the Monte-Carlo hot
// path never calls it.
func (s *RowSampler) Faults(kind fault.Kind) fault.Map {
	n := 0
	for _, r := range s.touched {
		for m := s.masks[r]; m != 0; m &= m - 1 {
			n++
		}
	}
	out := make(fault.Map, 0, n)
	for _, r := range s.touched {
		for c := 0; c < s.width; c++ {
			if s.masks[r]&(uint64(1)<<uint(c)) != 0 {
				out = append(out, fault.Fault{Row: r, Col: c, Kind: kind})
			}
		}
	}
	return out
}
