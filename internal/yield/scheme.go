// Package yield implements the paper's redefined, quality-aware yield
// criterion (§4): instead of rejecting every die with one or more failing
// bit-cells, a die qualifies if its application-level quality metric —
// approximated by the memory-local mean-square error of Eq. (6) — meets a
// target. The package evaluates Eqs. (3)-(6): the binomial failure-count
// prior, the per-scheme residual error after mitigation, the MSE quality
// function, and the Monte-Carlo CDF of Fig. 5.
package yield

import (
	"fmt"
	"math"
	mbits "math/bits"
	"sync"

	"faultmem/internal/core"
)

// Scheme describes how a protection scheme transforms the faulty physical
// columns of one row into residual logical error positions: the bit
// significances that can still be corrupted after mitigation. Eq. (6)
// charges each residual position b an error of 2^b.
type Scheme interface {
	// Name identifies the scheme in tables and figures.
	Name() string
	// Residual maps the faulty physical columns of one row (data
	// geometry, sorted or not) to the residual logical fault positions.
	Residual(cols []int) []int
	// RowMSE returns the summed squared residual error magnitude of one
	// row whose faulty physical columns are the set bits of mask (bit c
	// set = column c faulty; Width <= 64 so a row fits one word). It is
	// the allocation-free equivalent of summing (2^b)^2 over
	// Residual(cols) and is the Monte-Carlo engine's per-row hot path.
	//
	// RowMSE must be a pure function of mask (same mask, same bits, no
	// state): the engine tabulates it once per campaign for every one-
	// and two-fault mask and reads the tables instead of calling it.
	RowMSE(mask uint64) float64
}

// maskMSE sums (2^b)^2 = 4^b over the set bits of mask — Eq. (6)'s inner
// sum when every masked column leaks through unmitigated.
func maskMSE(mask uint64) float64 {
	sum := 0.0
	for m := mask; m != 0; m &= m - 1 {
		sum += math.Ldexp(1, 2*mbits.TrailingZeros64(m))
	}
	return sum
}

// Unprotected is the "No Correction" arm: every fault hits its own bit.
type Unprotected struct{}

// Name implements Scheme.
func (Unprotected) Name() string { return "No Correction" }

// Residual implements Scheme: faults pass through untouched.
func (Unprotected) Residual(cols []int) []int {
	return append([]int(nil), cols...)
}

// RowMSE implements Scheme: every masked column leaks through.
func (Unprotected) RowMSE(mask uint64) float64 { return maskMSE(mask) }

// Shuffled is the paper's bit-shuffling scheme at a given configuration.
// Construct it with NewShuffled (or NewShuffledConfig), which precomputes
// the per-configuration memo table the RowMSE hot path reads; a zero or
// hand-built value still works, falling back to the core search.
type Shuffled struct {
	Cfg  core.Config
	memo *shuffleMemo
}

// shuffleMemo caches, per shuffling configuration, everything RowMSE
// needs: the candidate write rotations and the best achievable row MSE
// for every single-fault column — the overwhelmingly common case under
// memory-scale Pcell, where multi-fault rows are rare enough to search
// directly.
type shuffleMemo struct {
	width     int
	widthMask uint64
	shifts    []int       // ShiftForX(x) per FM-LUT entry x
	single    [64]float64 // best row MSE for a lone fault at column c
}

func newShuffleMemo(cfg core.Config) *shuffleMemo {
	m := &shuffleMemo{width: cfg.Width}
	if cfg.Width == 64 {
		m.widthMask = ^uint64(0)
	} else {
		m.widthMask = (uint64(1) << uint(cfg.Width)) - 1
	}
	m.shifts = make([]int, cfg.NumSegments())
	for x := range m.shifts {
		m.shifts[x] = cfg.ShiftForX(x)
	}
	for c := 0; c < cfg.Width; c++ {
		m.single[c] = m.best(uint64(1) << uint(c))
	}
	return m
}

// best searches every FM-LUT entry for the rotation minimizing the row's
// summed squared error — the mask-space equivalent of core.Config.BestX
// (same ascending-x tie-breaking, so the two paths agree exactly).
func (m *shuffleMemo) best(mask uint64) float64 {
	best := math.Inf(1)
	for _, t := range m.shifts {
		// A write rotation of T places physical column f at logical
		// position (f + T) mod W: rotate the mask left by T within W.
		rot := ((mask << uint(t)) | (mask >> uint(m.width-t))) & m.widthMask
		if cost := maskMSE(rot); cost < best {
			best = cost
		}
	}
	return best
}

// NewShuffled returns the scheme for a 32-bit word at the given nFM.
func NewShuffled(nfm int) Shuffled {
	return NewShuffledConfig(core.Config{Width: 32, NFM: nfm})
}

// memoCache shares the RowMSE memo tables across every Shuffled built
// in the process, keyed by configuration. The tables are immutable
// after construction and depend only on the Config, so sharing is
// always sound; the key space is tiny (width × nFM). This is the
// scheme-level half of the serve mode's cross-request cache: a repeat
// campaign's schemes skip the memo rebuild entirely.
var memoCache sync.Map // core.Config -> *shuffleMemo

// NewShuffledConfig returns the scheme for an arbitrary configuration
// (Width a power of two in [2, 64]), with the RowMSE memo table built —
// or fetched from the process-wide per-configuration cache when any
// prior scheme already built it.
func NewShuffledConfig(cfg core.Config) Shuffled {
	if m, ok := memoCache.Load(cfg); ok {
		return Shuffled{Cfg: cfg, memo: m.(*shuffleMemo)}
	}
	m, _ := memoCache.LoadOrStore(cfg, newShuffleMemo(cfg))
	return Shuffled{Cfg: cfg, memo: m.(*shuffleMemo)}
}

// Name implements Scheme.
func (s Shuffled) Name() string { return fmt.Sprintf("nFM=%d-Bit", s.Cfg.NFM) }

// Residual implements Scheme via the FM-LUT best-entry rule.
func (s Shuffled) Residual(cols []int) []int {
	return s.Cfg.ResidualPositions(cols)
}

// RowMSE implements Scheme: single-fault rows hit the memo table, rarer
// multi-fault rows run the full 2^nFM-entry search on the mask.
func (s Shuffled) RowMSE(mask uint64) float64 {
	if mask == 0 {
		return 0
	}
	memo := s.memo
	if memo == nil {
		memo = newShuffleMemo(s.Cfg) // hand-built value; correctness over speed
	}
	if mask&(mask-1) == 0 {
		return memo.single[mbits.TrailingZeros64(mask)]
	}
	return memo.best(mask)
}

// FullECC is H(39,32) SECDED: a single fault per word is corrected; two
// or more faults in a word are detected but uncorrectable, so the raw
// faulty bits come back (SECDED returns the unmodified payload).
type FullECC struct{}

// Name implements Scheme.
func (FullECC) Name() string { return "H(39,32) ECC" }

// Residual implements Scheme.
func (FullECC) Residual(cols []int) []int {
	if len(cols) <= 1 {
		return nil
	}
	return append([]int(nil), cols...)
}

// RowMSE implements Scheme.
func (FullECC) RowMSE(mask uint64) float64 {
	if mask&(mask-1) == 0 { // zero or one fault: corrected
		return 0
	}
	return maskMSE(mask)
}

// PriorityECC is priority-based ECC: the top Protected bits (16 in the
// paper's H(22,16) configuration) are covered by SECDED — a single
// upper fault is corrected, two or more are uncorrectable — while the
// low-order bits are stored raw and always leak through. The zero value
// defaults to the paper's 16-bit split.
type PriorityECC struct {
	// Protected is the number of protected most significant bits
	// (0 means 16, the paper's configuration).
	Protected int
}

func (p PriorityECC) split() int {
	if p.Protected == 0 {
		return 16
	}
	return p.Protected
}

// Name implements Scheme.
func (p PriorityECC) Name() string {
	k := p.split()
	if k == 16 {
		return "H(22,16) P-ECC"
	}
	return fmt.Sprintf("P-ECC top-%d", k)
}

// Residual implements Scheme.
func (p PriorityECC) Residual(cols []int) []int {
	low := 32 - p.split()
	var lower, upper []int
	for _, c := range cols {
		if c < low {
			lower = append(lower, c)
		} else {
			upper = append(upper, c)
		}
	}
	if len(upper) <= 1 {
		return lower
	}
	return append(lower, upper...)
}

// RowMSE implements Scheme.
func (p PriorityECC) RowMSE(mask uint64) float64 {
	low := uint(32 - p.split())
	upper := mask >> low << low
	if upper&(upper-1) == 0 { // zero or one upper fault: corrected
		return maskMSE(mask &^ upper)
	}
	return maskMSE(mask)
}

// MSEFromRowFaults evaluates Eq. (6) for one memory sample: given the
// per-row faulty columns (data geometry) of a memory with rows words, it
// returns (1/R) * sum over residual failures of (2^b)^2 after the scheme's
// mitigation.
func MSEFromRowFaults(rowFaults map[int][]int, rows int, s Scheme) float64 {
	if rows <= 0 {
		panic("yield: non-positive row count")
	}
	sum := 0.0
	for _, cols := range rowFaults {
		for _, b := range s.Residual(cols) {
			m := math.Ldexp(1, b) // 2^b
			sum += m * m
		}
	}
	return sum / float64(rows)
}
