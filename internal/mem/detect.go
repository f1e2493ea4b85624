package mem

import (
	"fmt"
	"math/bits"
)

// DUESet is a reusable bitset of word indices whose read-back carried a
// detected-uncorrectable error. Checked round trips flag flat data
// indices into it (one bit per word of the transfer, not per memory
// row), so recovery policies can locate exactly the words the SECDED
// decoder proved corrupt. The zero value is ready to use; Reset grows
// it in place.
type DUESet struct {
	bits []uint64
	n    int
}

// Reset clears the set and sizes it for n indices.
func (s *DUESet) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("mem: DUESet size %d", n))
	}
	words := (n + 63) / 64
	if cap(s.bits) < words {
		s.bits = make([]uint64, words)
	} else {
		s.bits = s.bits[:words]
		clear(s.bits)
	}
	s.n = n
}

// Len returns the index capacity set by the last Reset.
func (s *DUESet) Len() int { return s.n }

// Set flags index i.
func (s *DUESet) Set(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("mem: DUESet index %d outside [0,%d)", i, s.n))
	}
	s.bits[i/64] |= uint64(1) << uint(i%64)
}

// Clear unflags index i.
func (s *DUESet) Clear(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("mem: DUESet index %d outside [0,%d)", i, s.n))
	}
	s.bits[i/64] &^= uint64(1) << uint(i%64)
}

// Get reports whether index i is flagged (false outside the range).
func (s *DUESet) Get(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.bits[i/64]&(uint64(1)<<uint(i%64)) != 0
}

// Any reports whether any index is flagged.
func (s *DUESet) Any() bool {
	for _, w := range s.bits {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of flagged indices.
func (s *DUESet) Count() int {
	c := 0
	for _, w := range s.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the first flagged index >= i, or -1 when none remains
// — the iteration primitive of the recovery loops.
func (s *DUESet) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	for i < s.n {
		w := s.bits[i/64] >> uint(i%64)
		if w != 0 {
			j := i + bits.TrailingZeros64(w)
			if j >= s.n {
				return -1
			}
			return j
		}
		i = (i/64 + 1) * 64
	}
	return -1
}
