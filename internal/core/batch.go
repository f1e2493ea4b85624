package core

import (
	"faultmem/internal/mem"
)

// ReadChecked is Read with no flag: bit-shuffling relocates error bits
// to low-significance positions but carries no code, so it cannot
// detect what it absorbs. Checked round trips therefore read through
// the shuffle and recover nothing, the degenerate policy.
func (s *Shuffled) ReadChecked(addr int) (uint32, bool) { return s.Read(addr), false }

// ReadBatch reads addr+i into dst[i]: one bulk fetch, then each row's
// read-path rotation restoring the original bit order. It never flags
// (see ReadChecked).
func (s *Shuffled) ReadBatch(addr int, dst []uint32, _ *mem.DUESet, _ int) {
	s.buf = growBuf(s.buf, len(dst))
	s.arr.ReadBatch(addr, s.buf)
	x := s.lut.x[addr : addr+len(dst)]
	for i, w := range s.buf {
		dst[i] = uint32(s.rot[x[i]].read(w, s.mask))
	}
}

// ImageKey identifies the fault-independent part of the encode
// transform, which for bit-shuffling is the identity: the per-row
// rotation depends on the programmed FM-LUT (i.e. on the fault map), so
// it is applied by WriteImage at store time and images survive Reset.
func (s *Shuffled) ImageKey() string { return mem.ImageKeyRaw32 }

// EncodeImage widens src into img (see ImageKey: the physical image
// before the fault-dependent rotation is the datum itself).
func (s *Shuffled) EncodeImage(img []uint64, src []uint32) { mem.EncodeRaw32(img, src) }

// WriteImage stores a precomputed image at addr+i, applying the current
// FM-LUT's per-row rotations and the array's stuck-at masks. img is not
// modified.
func (s *Shuffled) WriteImage(addr int, img []uint64) {
	s.buf = growBuf(s.buf, len(img))
	x := s.lut.x[addr : addr+len(img)]
	for i, w := range img {
		s.buf[i] = s.rot[x[i]].write(w, s.mask)
	}
	s.arr.WriteBatch(addr, s.buf)
}

// growBuf returns a length-n scratch slice, reusing buf's storage when
// it is large enough.
func growBuf(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}
