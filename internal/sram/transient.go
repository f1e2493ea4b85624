package sram

import (
	"fmt"
	"math/rand"

	"faultmem/internal/stats"
)

// SetTransient enables per-read transient bit flips (soft errors):
// independently of the persistent fault map, every cell of a word being
// read flips with probability rate. A rate of 0 (the default) disables
// the mechanism.
//
// Each read draws its cells in column order, cell b flipping exactly
// when rand.New(src).Float64() < rate would hold for its draw (the
// integer form of that test, stats.Bernoulli, is set up here once). A
// *stats.Source draws a word's whole flip mask in one block; any other
// source, a *rand.Rand included, is drawn one value at a time. Both
// consume the same draws and flip the same cells.
//
// Transient faults are *not* part of the paper's model — its BIST-driven
// FM-LUT can only target persistent fault locations — but the extension
// lets the ablation benches show where the scheme's protection ends:
// ECC corrects a single soft error per word, bit-shuffling does not
// reduce its magnitude (the flip lands on a random logical bit either
// way).
func (a *Array) SetTransient(rate float64, src rand.Source) {
	if !(rate >= 0 && rate < 1) {
		panic(fmt.Sprintf("sram: transient rate %g outside [0,1)", rate))
	}
	if rate > 0 && src == nil {
		panic("sram: transient faults need an RNG")
	}
	a.transientRate = rate
	a.transientFlip = stats.NewBernoulli(rate)
	a.transientSrc = src
}

// transientMask draws the soft-error flip mask for one read.
func (a *Array) transientMask() uint64 {
	if a.transientRate == 0 {
		return 0
	}
	return a.transientFlip.Mask(a.transientSrc, a.width)
}
