package yield

import (
	"fmt"
	"math"
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
	// bound is the largest 31-bit value cell accepts: 1<<31 - 1 when
	// cells is a power of two (cell then masks), else rand.Int31n's
	// rejection bound 1<<31 - 1 - (1<<31)%cells.
	bound   uint32
	masks   []uint64 // per-row fault mask, maintained sparse
	touched []int    // rows with >= 1 fault, in first-touch order
}

// NewRowSampler returns a sampler for a rows x width array.
func NewRowSampler(rows, width int) *RowSampler {
	if rows <= 0 || width <= 0 || width > 64 || rows > math.MaxInt32/width {
		panic(fmt.Sprintf("yield: bad sampler geometry %dx%d", rows, width))
	}
	cells := rows * width
	bound := uint32(math.MaxInt32)
	if cells&(cells-1) != 0 {
		bound -= (1 << 31) % uint32(cells)
	}
	return &RowSampler{
		rows:  rows,
		width: width,
		cells: cells,
		bound: bound,
		masks: make([]uint64, rows),
		// Worst case every fault lands on its own row; sized lazily by
		// Draw so typical fault counts never regrow it.
		touched: make([]int, 0, 256),
	}
}

// cell returns rng.Intn(s.cells), drawing what it draws: rand.Int31n's
// arithmetic on the top 31 bits of one Int63 (a mask when cells is a
// power of two, else a remainder after rejecting draws above bound),
// without its call chain.
func (s *RowSampler) cell(rng *rand.Rand) int {
	v := uint32(rng.Int63() >> 32)
	if s.bound == math.MaxInt32 {
		return int(v & uint32(s.cells-1))
	}
	for v > s.bound {
		v = uint32(rng.Int63() >> 32)
	}
	return int(v % uint32(s.cells))
}

// Draw replaces the sampler's contents with n faults placed uniformly at
// random over distinct cells — the same distribution as
// fault.GenerateCount — using duplicate rejection against the row masks
// themselves. It draws each cell as rng.Intn(cells) would, and performs
// no allocations once touched has grown to the largest row count seen
// (pre-sized to 256 rows).
func (s *RowSampler) Draw(rng *rand.Rand, n int) {
	if n > s.cells {
		panic(fmt.Sprintf("yield: %d faults exceed %d cells", n, s.cells))
	}
	s.Reset()
	w := uint32(s.width)
	for placed := 0; placed < n; {
		cell := uint32(s.cell(rng))
		row := cell / w
		bit := uint64(1) << (cell % w)
		if s.masks[row]&bit != 0 {
			continue // duplicate cell: redraw
		}
		if s.masks[row] == 0 {
			s.touched = append(s.touched, int(row))
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

// exactFaults is the largest failure count whose dies the engine
// computes exactly rather than samples (MSECDFAllEnv).
const exactFaults = 2

// exactEntries is the number of weighted entries the exact strata add
// to each arm on a width-bit word: W for one fault, W² for two on two
// rows and W(W-1) for two on one row.
func exactEntries(width int) int { return 2 * width * width }

// armCosts holds a campaign's per-arm costs, built once from
// Scheme.RowMSE and shared read-only by every shard. At memory-scale
// Pcell nearly every faulty row holds one fault (99.99% at Fig. 5's paper
// budget), and most dies hold one or two faulty cells (70.8% and 23.2%
// there), so it keeps:
//
//   - single, the row cost of every single-fault mask, which mseAll reads
//     for such rows, calling RowMSE only for multi-fault rows;
//   - for every arm j, its MSE of every outcome of a die of one or two
//     faults, the exact strata addExact adds: one[j][c] for one fault in
//     column c; twoRows[j][c1*W+c2] for two faults on two rows, in
//     columns c1 then c2; and sameRow[j] for two on one row, in columns
//     c1 != c2, c1-major.
//
// The entries hold the expressions mseAll evaluates for those dies, so
// they are the bits the sampler would score: from zero, each faulty
// row's cost in first-touch order, then one division by the row count.
// A one-fault die is (0 + s[c]) / rows, where s[c] is RowMSE(1 << c); a
// die of two faults on two rows is ((0 + s[c1]) + s[c2]) / rows; and one
// of two faults on one row is (0 + RowMSE(1<<c1 | 1<<c2)) / rows.
type armCosts struct {
	schemes     []Scheme
	rows, width int
	// single[c*len(schemes)+j] is schemes[j].RowMSE(1 << c).
	single                []float64
	one, twoRows, sameRow [][]float64
}

// newArmCosts builds the costs of schemes on a rows x width array.
func newArmCosts(schemes []Scheme, rows, width int) *armCosts {
	n := len(schemes)
	a := &armCosts{
		schemes: schemes, rows: rows, width: width, single: make([]float64, width*n),
		one: make([][]float64, n), twoRows: make([][]float64, n), sameRow: make([][]float64, n),
	}
	r := float64(rows)
	for j, sch := range schemes {
		a.one[j] = make([]float64, width)
		for c := range width {
			v := sch.RowMSE(uint64(1) << uint(c))
			a.single[c*n+j] = v
			a.one[j][c] = (0 + v) / r
		}
		a.twoRows[j] = make([]float64, 0, width*width)
		a.sameRow[j] = make([]float64, 0, width*(width-1))
		for c1 := range width {
			for c2 := range width {
				s1, s2 := a.single[c1*n+j], a.single[c2*n+j]
				a.twoRows[j] = append(a.twoRows[j], ((0+s1)+s2)/r)
				if c1 != c2 {
					a.sameRow[j] = append(a.sameRow[j], (0+sch.RowMSE(uint64(1)<<uint(c1)|uint64(1)<<uint(c2)))/r)
				}
			}
		}
	}
	return a
}

// addExact adds to acc, arm j's accumulator, the exact strata among
// plans (the counts of at most exactFaults faults), in a fixed order.
// A die of one fault on a rows x W array sits in a uniform column: each
// of the W one entries takes Pr(N=1)/W. A die of two is a uniform
// ordered pair of distinct cells, one of RW(RW-1): each of the W²
// two-row entries stands for R(R-1) of them and takes
// Pr(N=2)(R-1)/(W(RW-1)), and each of the W(W-1) same-row entries
// stands for R and takes Pr(N=2)/(W(RW-1)). Each class is one AddBatch,
// left out when its weight is 0 (a single row has no two-row pairs).
func (a *armCosts) addExact(acc stats.Accumulator, j int, plans []countPlan) {
	r, w := float64(a.rows), float64(a.width)
	for _, pl := range plans {
		switch pl.n {
		case 1:
			acc.AddBatch(a.one[j], pl.w/w)
		case 2:
			pairs := w * (r*w - 1)
			if a.rows > 1 {
				acc.AddBatch(a.twoRows[j], pl.w*(r-1)/pairs)
			}
			acc.AddBatch(a.sameRow[j], pl.w/pairs)
		}
	}
}

// lastCosts is the armCosts of the most recent campaign whose schemes
// are all of this package's types. A sweep worker replays a campaign's
// engine run once for every shard it computes (exp.RunStage), and the
// costs take longer to build than a small campaign's shard takes to
// score, so the replays of one campaign share them. An armCosts is a
// pure function of its schemes (whose RowMSE is pure) and the array, so
// sharing one never changes a result.
var lastCosts struct {
	sync.Mutex
	schemes     []Scheme
	rows, width int
	costs       *armCosts
}

// campaignCosts returns newArmCosts(schemes, rows, width), or the last
// campaign's when that was built from equal arguments.
func campaignCosts(schemes []Scheme, rows, width int) *armCosts {
	l := &lastCosts
	l.Lock()
	costs := l.costs
	if costs == nil || l.rows != rows || l.width != width || !slices.Equal(l.schemes, schemes) {
		costs = nil
	}
	l.Unlock()
	if costs != nil {
		return costs
	}
	costs = newArmCosts(schemes, rows, width)
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
	l.schemes, l.rows, l.width, l.costs = slices.Clone(schemes), rows, width, costs
	l.Unlock()
	return costs
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
