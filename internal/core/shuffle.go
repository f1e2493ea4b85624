// Package core implements the paper's primary contribution: the
// significance-driven bit-shuffling fault-mitigation scheme (§3).
//
// Instead of correcting faults, the scheme places bits of low significance
// into faulty cells. A per-row fault-map look-up table (FM-LUT) stores,
// in nFM bits, the index xFM of the word segment containing the row's
// faulty cell. On every write the data word is right-circular-shifted by
//
//	T(r) = S * (2^nFM - xFM(r)) mod W        (Eq. 2)
//
// with segment size S = W / 2^nFM (Eq. 1), so the least-significant
// segment lands on the faulty segment; on read the word is rotated back.
// A single fault at physical column f then corrupts logical bit
// (f mod S) < S, bounding the error magnitude by 2^(S-1).
package core

import (
	"fmt"
	"math"
	mbits "math/bits"
)

// Config selects the word width and FM-LUT entry width of a bit-shuffling
// instance.
type Config struct {
	// Width is the data word width W in bits. Must be a power of two in
	// [2, 64]. The paper's experiments use 32.
	Width int
	// NFM is the FM-LUT entry width nFM in bits, 1 <= NFM <= log2(Width).
	// Larger NFM means finer shift granularity: NFM = log2(W) shifts at
	// single-bit granularity; NFM = 1 can only swap word halves.
	NFM int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	w := c.Width
	if w < 2 || w > 64 || w&(w-1) != 0 {
		return fmt.Errorf("core: width %d is not a power of two in [2,64]", w)
	}
	max := c.maxNFM()
	if c.NFM < 1 || c.NFM > max {
		return fmt.Errorf("core: nFM %d outside [1,%d] for width %d", c.NFM, max, w)
	}
	return nil
}

func (c Config) maxNFM() int {
	// log2 of the power-of-two width, as integer arithmetic: Validate
	// guards every per-word accessor (SegmentSize, ShiftForX, ...), so
	// a transcendental log here would tax every shuffled memory access.
	return mbits.Len(uint(c.Width)) - 1
}

// mustValidate panics on an invalid configuration (constructor guard).
func (c Config) mustValidate() {
	if err := c.Validate(); err != nil {
		panic(err)
	}
}

// SegmentSize returns S = W / 2^nFM (Eq. 1).
func (c Config) SegmentSize() int {
	c.mustValidate()
	return c.Width >> uint(c.NFM)
}

// NumSegments returns 2^nFM, the number of segments the word is divided
// into (and the number of distinct FM-LUT values).
func (c Config) NumSegments() int {
	c.mustValidate()
	return 1 << uint(c.NFM)
}

// MaxErrorMagnitude returns the worst-case single-fault error magnitude
// 2^(S-1) guaranteed by the scheme (§3).
func (c Config) MaxErrorMagnitude() uint64 {
	return uint64(1) << uint(c.SegmentSize()-1)
}

// ShiftForX returns the rotation amount T = S*(2^nFM - x) mod W applied
// to a word whose FM-LUT entry is x (Eq. 2). x = 0 (no fault recorded in
// a nonzero segment) yields T = 0.
func (c Config) ShiftForX(x int) int {
	n := c.NumSegments()
	if x < 0 || x >= n {
		panic(fmt.Sprintf("core: xFM %d outside [0,%d)", x, n))
	}
	return (c.SegmentSize() * (n - x)) % c.Width
}

// XForSingleFault returns the FM-LUT entry for a row with a single faulty
// cell at physical column f: the index of the segment containing f.
func (c Config) XForSingleFault(f int) int {
	if f < 0 || f >= c.Width {
		panic(fmt.Sprintf("core: fault column %d outside [0,%d)", f, c.Width))
	}
	return f / c.SegmentSize()
}

// LogicalPosition returns the logical bit significance that a fault at
// physical column f corrupts when the row's FM-LUT entry is x: under a
// write rotation of T, physical cell f holds logical bit (f + T) mod W.
func (c Config) LogicalPosition(f, x int) int {
	if f < 0 || f >= c.Width {
		panic(fmt.Sprintf("core: fault column %d outside [0,%d)", f, c.Width))
	}
	return (f + c.ShiftForX(x)) % c.Width
}

// BestX returns the FM-LUT entry minimizing the summed squared error
// magnitude for a row with faulty physical columns cols, together with
// the resulting per-fault logical positions. For a single fault this is
// exactly the paper's rule (the fault's segment index); for multiple
// faults per row — which the paper's single-fault assumption leaves open —
// it picks the best achievable rotation (ties broken toward smaller x).
// An empty cols yields x = 0 (no shift).
func (c Config) BestX(cols []int) (x int, logical []int) {
	x = c.BestXCode(cols)
	if len(cols) == 0 {
		return 0, nil
	}
	logical = make([]int, len(cols))
	for i, f := range cols {
		logical[i] = c.LogicalPosition(f, x)
	}
	return x, logical
}

// BestXCode is BestX without materializing the logical positions — the
// FM-LUT only stores x, so table (re)programming stays allocation-free.
func (c Config) BestXCode(cols []int) int {
	c.mustValidate()
	if len(cols) == 0 {
		return 0
	}
	bestCost := math.Inf(1)
	bestX := 0
	for cand := 0; cand < c.NumSegments(); cand++ {
		cost := 0.0
		for _, f := range cols {
			b := c.LogicalPosition(f, cand)
			m := math.Ldexp(1, b) // 2^b
			cost += m * m
		}
		if cost < bestCost {
			bestCost, bestX = cost, cand
		}
	}
	return bestX
}

// ResidualPositions returns the logical bit positions still corrupted in
// a row with faulty columns cols after bit-shuffling with the best FM-LUT
// entry. This is the quantity Eq. (6) sums over for the shuffled memory.
func (c Config) ResidualPositions(cols []int) []int {
	_, logical := c.BestX(cols)
	return logical
}

// XPaperRule returns the FM-LUT entry under a literal reading of the
// paper's single-fault rule extended to multi-fault rows: record the
// segment of the *most significant* faulty cell (the one that would hurt
// most if left alone), ignoring the others. BestX instead searches all
// 2^nFM entries; the ablation benches quantify the difference. For a
// single fault the two rules coincide.
func (c Config) XPaperRule(cols []int) int {
	if len(cols) == 0 {
		return 0
	}
	msb := cols[0]
	for _, f := range cols[1:] {
		if f > msb {
			msb = f
		}
	}
	return c.XForSingleFault(msb)
}

// ResidualPositionsPaperRule is ResidualPositions under XPaperRule.
func (c Config) ResidualPositionsPaperRule(cols []int) []int {
	x := c.XPaperRule(cols)
	logical := make([]int, len(cols))
	for i, f := range cols {
		logical[i] = c.LogicalPosition(f, x)
	}
	return logical
}

// SingleFaultErrorExponent returns log2 of the error magnitude caused by
// a single fault at physical column b under this configuration: b mod S.
// This is the quantity plotted in Fig. 4 for nFM = 1..5.
func (c Config) SingleFaultErrorExponent(b int) int {
	if b < 0 || b >= c.Width {
		panic(fmt.Sprintf("core: bit position %d outside [0,%d)", b, c.Width))
	}
	return b % c.SegmentSize()
}
