package ecc

import "fmt"

// EncodeBatch encodes src[i] into dst[i] for every element, through the
// same per-word kernel as Encode — the bulk write path of an
// ECC-protected memory. dst and src must have equal length; they may
// be the same slice (each element is read before it is written).
func (c *Code) EncodeBatch(dst, src []uint64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("ecc: encode batch dst %d vs src %d", len(dst), len(src)))
	}
	for i, data := range src {
		dst[i] = c.encode(data)
	}
}

// DecodeBatch decodes cw[i] into dst[i] and records the word's decode
// Status in sts[i] for every element, returning how many words were
// corrected and how many carried detected-uncorrectable errors. It runs
// the same per-word kernel as Decode — the bulk read path of an
// ECC-protected memory, whose checked reads find the flagged words in
// sts. dst, cw and sts must have equal length; dst and cw may be the
// same slice.
func (c *Code) DecodeBatch(dst, cw []uint64, sts []Status) (corrected, uncorrectable uint64) {
	if len(dst) != len(cw) || len(sts) != len(cw) {
		panic(fmt.Sprintf("ecc: decode batch dst %d vs cw %d vs sts %d", len(dst), len(cw), len(sts)))
	}
	for i, w := range cw {
		data, o := c.decode(w)
		dst[i], sts[i] = data, o.st
		switch o.st {
		case Corrected:
			corrected++
		case DetectedUncorrectable:
			uncorrectable++
		}
	}
	return corrected, uncorrectable
}
