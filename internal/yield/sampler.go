package yield

import (
	"fmt"
	mbits "math/bits"
	"math/rand"

	"faultmem/internal/fault"
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

// armCosts scores a die under several schemes in one pass over its faulty
// rows. At memory-scale Pcell nearly every faulty row holds one fault
// (99.99% at Fig. 5's paper budget), so the costs of all single-fault
// rows are tabulated once per campaign from Scheme.RowMSE and such a row
// costs one table read per scheme; only multi-fault rows call RowMSE.
// The table is immutable and shared by every shard of the campaign.
type armCosts struct {
	schemes []Scheme
	// single[c*len(schemes)+j] is schemes[j].RowMSE(1 << c).
	single []float64
}

func newArmCosts(schemes []Scheme, width int) *armCosts {
	n := len(schemes)
	a := &armCosts{schemes: schemes, single: make([]float64, width*n)}
	for c := 0; c < width; c++ {
		for j, sch := range schemes {
			a.single[c*n+j] = sch.RowMSE(uint64(1) << uint(c))
		}
	}
	return a
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
