package ecc

import (
	"fmt"
	"math/bits"
)

// EncodeBatch encodes src[i] into dst[i] for every element. It is
// bit-identical to calling Encode per word, but hoists the scatter-run
// and coverage-mask table walks out of the per-call prologue so the
// encoder stays in registers across the batch — the bulk write path of
// an ECC-protected memory. dst and src must have equal length; they may
// be the same slice (each element is read before it is written).
func (c *Code) EncodeBatch(dst, src []uint64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("ecc: encode batch dst %d vs src %d", len(dst), len(src)))
	}
	kMask := (uint64(1) << uint(c.k)) - 1
	runs := c.runs
	covMasks := c.covMasks
	parityPos := c.parityPos
	for i, data := range src {
		data &= kMask
		var cw uint64
		for _, run := range runs {
			cw |= (data << run.shift) & run.mask
		}
		for j, pp := range parityPos {
			cw |= uint64(bits.OnesCount64(cw&covMasks[j])&1) << uint(pp)
		}
		cw |= uint64(bits.OnesCount64(cw) & 1)
		dst[i] = cw
	}
}

// DecodeBatch decodes cw[i] into dst[i] and records the word's decode
// Status in sts[i] for every element, returning how many words were
// corrected and how many carried detected-uncorrectable errors. The
// recovered data, correction decisions, statuses and counts are
// bit-identical to calling Decode per word — the bulk read path of an
// ECC-protected memory, whose checked reads find the flagged words in
// sts. dst, cw and sts must have equal length; dst and cw may be the
// same slice.
func (c *Code) DecodeBatch(dst, cw []uint64, sts []Status) (corrected, uncorrectable uint64) {
	if len(dst) != len(cw) || len(sts) != len(cw) {
		panic(fmt.Sprintf("ecc: decode batch dst %d vs cw %d vs sts %d", len(dst), len(cw), len(sts)))
	}
	nMask := (uint64(1) << uint(c.n)) - 1
	runs := c.runs
	covMasks := c.covMasks
	maxPos := c.k + c.r
	for i, w := range cw {
		w &= nMask
		syn := 0
		for j, mask := range covMasks {
			syn |= (bits.OnesCount64(w&mask) & 1) << uint(j)
		}
		overall := bits.OnesCount64(w) & 1
		st := OK
		switch {
		case syn == 0 && overall == 0:
		case syn == 0 && overall == 1:
			w ^= 1
			corrected++
			st = Corrected
		case syn != 0 && overall == 1:
			if syn > maxPos {
				uncorrectable++
				st = DetectedUncorrectable
			} else {
				w ^= uint64(1) << uint(syn)
				corrected++
				st = Corrected
			}
		default: // syn != 0 && overall == 0
			uncorrectable++
			st = DetectedUncorrectable
		}
		sts[i] = st
		var data uint64
		for _, run := range runs {
			data |= (w & run.mask) >> run.shift
		}
		dst[i] = data
	}
	return corrected, uncorrectable
}
