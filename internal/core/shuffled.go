package core

import (
	"fmt"

	"faultmem/internal/bits"
	"faultmem/internal/fault"
	"faultmem/internal/mem"
	"faultmem/internal/sram"
)

// Shuffled is a faulty memory protected by the bit-shuffling scheme: the
// complete datapath of Fig. 3. It implements mem.Word32 for Width == 32.
//
// The FM-LUT itself is modeled fault-free, matching the paper's analysis
// (the LUT columns can be built from robust cells or a register file,
// §5.1); the overhead model in internal/hw charges for its area, power,
// and the read-path shifter delay.
type Shuffled struct {
	cfg  Config
	arr  *sram.Array
	lut  *FMLUT
	rot  []rotation // per FM-LUT value; cfg never changes
	mask uint64     // the low cfg.Width bits
	buf  []uint64   // batch-transfer staging scratch
}

// rotation rotates the low W bits of a word by one FM-LUT value's T
// (Eq. 2): right on the write path, left on the read path. It is the
// shift pair (T, W-T), so the per-word work is two shifts, an OR and a
// mask; bits.RotateRight and bits.RotateLeft, which check the width
// and reduce T modulo W on every call, are its test oracle. At T = 0
// the pair is (0, W), and a shift by W moves every bit of a W-bit word
// out, so no amount is special.
type rotation struct{ t, u uint8 }

func newRotation(w, t int) rotation { return rotation{uint8(t), uint8(w - t)} }

// write is bits.RotateRight(v, W, T) for mask = bits.Mask(W).
func (r rotation) write(v, mask uint64) uint64 {
	v &= mask
	return (v>>r.t | v<<r.u) & mask
}

// read is bits.RotateLeft(v, W, T) for mask = bits.Mask(W).
func (r rotation) read(v, mask uint64) uint64 {
	v &= mask
	return (v<<r.t | v>>r.u) & mask
}

// newShuffled assembles the memory and computes its rotation table, one
// entry per FM-LUT value.
func newShuffled(arr *sram.Array, lut *FMLUT) *Shuffled {
	cfg := lut.Config()
	s := &Shuffled{
		cfg:  cfg,
		arr:  arr,
		lut:  lut,
		rot:  make([]rotation, cfg.NumSegments()),
		mask: bits.Mask(cfg.Width),
	}
	for x := range s.rot {
		s.rot[x] = newRotation(cfg.Width, cfg.ShiftForX(x))
	}
	return s
}

// NewShuffled builds a bit-shuffling memory over rows words of cfg.Width
// bits with the given data-geometry fault map. The FM-LUT is programmed
// from the fault map as BIST would (§3: fault locations are detected
// during BIST and the shifting value recorded for each row).
func NewShuffled(cfg Config, rows int, faults fault.Map) (*Shuffled, error) {
	lut, err := BuildFMLUT(cfg, rows, faults)
	if err != nil {
		return nil, err
	}
	arr := sram.NewArray(rows, cfg.Width)
	if err := arr.SetFaults(faults); err != nil {
		return nil, err
	}
	return newShuffled(arr, lut), nil
}

// Reset reinstalls a new data-geometry fault map in place (see
// mem.Resetter): the array's fault masks and the FM-LUT are rebuilt
// without reallocating, so per-trial Monte-Carlo loops can reuse one
// memory per arm. Previously stored words remain (a write-then-read
// cycle behaves exactly like a freshly built memory). The array takes
// the map first: Reprogram's checks are a subset of SetFaults' on the
// same geometry, so a map the array accepts programs the table, and a
// rejected map changes neither.
func (s *Shuffled) Reset(faults fault.Map) error {
	if err := s.arr.SetFaults(faults); err != nil {
		return err
	}
	return s.lut.Reprogram(faults)
}

// NewShuffledWithLUT builds the memory with an externally programmed
// FM-LUT (the cmd/bistscan flow: BIST discovers faults, programs the
// table, then the datapath uses it). The array's faults and the LUT are
// the caller's responsibility to keep consistent.
func NewShuffledWithLUT(arr *sram.Array, lut *FMLUT) (*Shuffled, error) {
	cfg := lut.Config()
	if arr.Width() != cfg.Width {
		return nil, fmt.Errorf("core: array width %d != config width %d", arr.Width(), cfg.Width)
	}
	if arr.Rows() != lut.Rows() {
		return nil, fmt.Errorf("core: array rows %d != FM-LUT rows %d", arr.Rows(), lut.Rows())
	}
	return newShuffled(arr, lut), nil
}

// Read fetches the word at addr: raw read, then left-circular shift by
// T(addr) to restore the original bit order.
func (s *Shuffled) Read(addr int) uint32 { return uint32(s.ReadWide(addr)) }

// Write stores v at addr: right-circular shift by T(addr) so the least
// significant segment lands on the faulty cells, then raw write.
func (s *Shuffled) Write(addr int, v uint32) { s.WriteWide(addr, uint64(v)) }

// ReadWide and WriteWide are the width-generic accessors (for Width != 32
// configurations used in the word-width ablation).
func (s *Shuffled) ReadWide(addr int) uint64 {
	r := s.rot[s.lut.X(addr)]
	return r.read(s.arr.Read(addr), s.mask)
}

// WriteWide stores the low Width bits of v at addr.
func (s *Shuffled) WriteWide(addr int, v uint64) {
	r := s.rot[s.lut.X(addr)]
	s.arr.Write(addr, r.write(v, s.mask))
}

// Words returns the address space size.
func (s *Shuffled) Words() int { return s.arr.Rows() }

// LUT returns the fault-map look-up table.
func (s *Shuffled) LUT() *FMLUT { return s.lut }

// Array returns the underlying bit-cell array.
func (s *Shuffled) Array() *sram.Array { return s.arr }

// Config returns the shuffling configuration.
func (s *Shuffled) Config() Config { return s.cfg }

// Faults returns the installed fault map (data geometry).
func (s *Shuffled) Faults() fault.Map { return s.arr.Faults() }

var _ mem.Word32 = (*Shuffled)(nil)
