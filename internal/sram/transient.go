package sram

import (
	"fmt"
	"math"
	"math/rand"
)

// maxGap caps a drawn gap far above the number of cells any campaign
// reads, so the countdown cannot overflow.
const maxGap = 1 << 62

// SetTransient enables per-read transient bit flips (soft errors):
// independently of the persistent fault map, every cell of a word being
// read flips with probability rate. A rate of 0 (the default) disables
// the mechanism and draws nothing from src.
//
// The cells of successive reads, taken in read order and each word in
// column order, flip as independent Bernoulli(rate) trials. The array
// draws that process by its gaps: it counts down the cells left before
// the next flip, so a read that holds no flip costs a compare and a
// subtract, and each flip draws the next gap from Geometric(rate) with
// one src.Int63 (floor(log(u)/log1p(-rate)) for u uniform on (0, 1] at
// 2^-53 resolution). ReadBatch runs the same countdown over its rows.
// SetTransient resets the countdown, and the first read after it draws
// the first gap, so the flips that follow depend only on src's state.
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
	a.transientScale = 1 / math.Log1p(-rate)
	a.transientSrc = src
	a.transientLeft = -1
}

// transientMask draws the soft-error flip mask of one read.
func (a *Array) transientMask() uint64 {
	if a.transientRate == 0 {
		return 0
	}
	var word [1]uint64
	a.transientFlips(word[:])
	return word[0]
}

// transientFlips XORs into words the soft errors of reading them one
// after another: the countdown walks their cells in order, skips a word
// without a flip in O(1) and draws the next gap at every flip. Where the
// words end, the rest of the countdown carries to the next read.
func (a *Array) transientFlips(words []uint64) {
	if len(words) == 0 {
		return
	}
	w := int64(a.width)
	n := int64(len(words)) * w
	next := a.transientLeft
	if next < 0 {
		next = a.gap()
	}
	for next < n {
		words[next/w] ^= 1 << uint(next%w)
		next += 1 + a.gap()
	}
	a.transientLeft = next - n
}

// gap draws the number of cells before the next flip.
func (a *Array) gap() int64 {
	u := float64(a.transientSrc.Int63()>>10+1) * 0x1p-53
	g := math.Log(u) * a.transientScale
	if !(g < maxGap) {
		return maxGap
	}
	return int64(g)
}
