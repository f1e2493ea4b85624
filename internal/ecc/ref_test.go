package ecc

import "math/bits"

// refCode is the mask-and-popcount SECDED encoder and decoder that the
// table kernels replaced, kept as their independent oracle: it lays the
// code out from k on its own, scatters the data run by run, computes
// each Hamming parity bit as one masked popcount, and spells the decode
// decision out case by case.
type refCode struct {
	k, r, n   int
	parityPos []int        // codeword position of Hamming parity bit i (= 1<<i)
	runs      []scatterRun // contiguous data-bit runs
	covMasks  []uint64     // position-coverage mask of Hamming parity bit i
}

// scatterRun moves one contiguous block of data bits to its contiguous
// block of codeword positions: cw |= (data << shift) & mask.
type scatterRun struct {
	shift uint
	mask  uint64 // the run's bits, at codeword positions
}

func newRef(k int) *refCode {
	r := 0
	for (1 << uint(r)) < k+r+1 {
		r++
	}
	c := &refCode{k: k, r: r, n: k + r + 1}
	var dataPos []int
	for i := 0; i < r; i++ {
		c.parityPos = append(c.parityPos, 1<<uint(i))
	}
	for p := 1; p <= k+r; p++ {
		if p&(p-1) != 0 {
			dataPos = append(dataPos, p)
		}
	}
	for i := 0; i < k; {
		j := i
		for j+1 < k && dataPos[j+1] == dataPos[j]+1 {
			j++
		}
		width := j - i + 1
		mask := uint64((1<<uint(width))-1) << uint(dataPos[i])
		c.runs = append(c.runs, scatterRun{shift: uint(dataPos[i] - i), mask: mask})
		i = j + 1
	}
	c.covMasks = make([]uint64, r)
	for i := 0; i < r; i++ {
		for p := 1; p <= k+r; p++ {
			if p&(1<<uint(i)) != 0 {
				c.covMasks[i] |= 1 << uint(p)
			}
		}
	}
	return c
}

func (c *refCode) encode(data uint64) uint64 {
	data &= (uint64(1) << uint(c.k)) - 1
	var cw uint64
	for _, run := range c.runs {
		cw |= (data << run.shift) & run.mask
	}
	for i, pp := range c.parityPos {
		cw |= uint64(bits.OnesCount64(cw&c.covMasks[i])&1) << uint(pp)
	}
	return cw | uint64(bits.OnesCount64(cw)&1)
}

func (c *refCode) syndrome(cw uint64) int {
	syn := 0
	for i, mask := range c.covMasks {
		syn |= (bits.OnesCount64(cw&mask) & 1) << uint(i)
	}
	return syn
}

func (c *refCode) decode(cw uint64) (data uint64, st Status, fixedPos int) {
	cw &= (uint64(1) << uint(c.n)) - 1
	syn := c.syndrome(cw)
	overall := bits.OnesCount64(cw) & 1
	fixedPos = -1
	switch {
	case syn == 0 && overall == 0:
		st = OK
	case syn == 0 && overall == 1:
		cw ^= 1
		st, fixedPos = Corrected, 0
	case syn != 0 && overall == 1:
		if syn > c.k+c.r {
			st = DetectedUncorrectable
		} else {
			cw ^= uint64(1) << uint(syn)
			st, fixedPos = Corrected, syn
		}
	default:
		st = DetectedUncorrectable
	}
	return c.extract(cw), st, fixedPos
}

func (c *refCode) extract(cw uint64) uint64 {
	var data uint64
	for _, run := range c.runs {
		data |= (cw & run.mask) >> run.shift
	}
	return data
}
