// Package mem defines the word-addressable memory abstraction shared by
// all protection schemes, and the reference implementations the paper
// compares against: an unprotected faulty memory, full-word H(39,32)
// SECDED ECC, and H(22,16) priority-based ECC (P-ECC) on the 16 most
// significant bits. The paper's own scheme (bit-shuffling) lives in
// internal/core and implements the same interface.
//
// Fault geometry convention: fault maps passed to the constructors are in
// *data geometry* — rows x 32 data bits — regardless of how many physical
// columns the scheme adds for check bits. Check-bit columns are modeled
// fault-free by default, matching the paper's Eq. (6) analysis where every
// failure sits at a data bit position b in [0, W). ECC and P-ECC accept
// optional extra check-bit faults for ablation studies.
package mem

import (
	"fmt"

	"faultmem/internal/fault"
	"faultmem/internal/sram"
)

// Word32 is a 32-bit word-addressable memory: the datapath of one
// protection arm. Every arm implements the whole interface, so the bulk
// paths need no capability checks.
//
// The batch methods are semantically identical to the equivalent
// per-word Write/Read loop in ascending address order — the same fault
// application, decode statistics, access accounting and soft-error
// draws — and the word-at-a-time methods remain the oracle they are
// tested against.
type Word32 interface {
	// Words returns the address space size.
	Words() int
	// Read returns the word at addr (faults and mitigation applied).
	Read(addr int) uint32
	// ReadChecked is Read plus the word's detected-uncorrectable flag:
	// the SECDED double-error signal. Arms without a detecting code
	// never flag.
	ReadChecked(addr int) (v uint32, due bool)
	// Write stores v at addr.
	Write(addr int, v uint32)
	// ReadBatch reads the word at addr+i into dst[i] for every element.
	// When due is not nil it also sets due bit base+i for every
	// detected-uncorrectable word at addr+i; already-set bits are left
	// alone (the caller resets the set), so one set accumulates flags
	// across the pages of a larger transfer.
	ReadBatch(addr int, dst []uint32, due *DUESet, base int)
	// ImageKey identifies the encode transform: two memories with equal
	// keys produce identical images for identical data, so an image can
	// be cached per key and shared across instances. It is never empty.
	ImageKey() string
	// EncodeImage fills img with the physical words a fault-free write
	// of src would store — for an ECC memory, the clean codewords.
	// len(img) must equal len(src). It is position-independent: img[i]
	// depends only on src[i], so one image serves any paging of the
	// data. Anything address- or fault-dependent (stuck-at masks, the
	// FM-LUT shuffle rotation) is applied by WriteImage, which is why
	// images stay valid across Reset.
	EncodeImage(img []uint64, src []uint32)
	// WriteImage stores a precomputed image at addr+i, with the fault
	// effects and access accounting of writing the source data word by
	// word. img is not modified.
	WriteImage(addr int, img []uint64)
}

// DataWidth is the logical word width of every memory in this package.
const DataWidth = 32

// Resetter is implemented by memories that can reinstall a new
// data-geometry fault map in place, reusing their internal storage —
// the per-trial path of Monte-Carlo loops that rebuild one memory per
// (trial, arm) instead of constructing fresh ones. Reset models check
// bits fault-free (the paper's Eq. 6 default), zeroes any decode
// statistics, and leaves previously stored words in place: a subsequent
// write-then-read cycle behaves exactly like a freshly built memory.
//
// A reset costs O(faults in the previous and the new map), not O(rows),
// and a rejected map (a fault outside the memory, a cell listed twice,
// an unknown kind) returns an error and changes nothing: reads, decode
// statistics and the installed map stay as they were.
type Resetter interface {
	Reset(dataFaults fault.Map) error
}

// ImageKeyRaw32 is the image key of memories whose physical word equals
// the 32-bit datum (no check bits added by the encode transform).
const ImageKeyRaw32 = "raw32"

// EncodeRaw32 is EncodeImage for every ImageKeyRaw32 memory: it widens
// src into img, since the physical image is the datum itself.
func EncodeRaw32(img []uint64, src []uint32) {
	checkImageLen(img, src)
	for i, v := range src {
		img[i] = uint64(v)
	}
}

// checkImageLen panics unless img and src pair up one-to-one.
func checkImageLen(img []uint64, src []uint32) {
	if len(img) != len(src) {
		panic(fmt.Sprintf("mem: image length %d vs data length %d", len(img), len(src)))
	}
}

// growBuf returns a length-n scratch slice, reusing buf's storage when
// it is large enough.
func growBuf(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// Perfect is an ideal fault-free memory, the golden reference.
type Perfect struct {
	data []uint32
}

// NewPerfect returns a fault-free memory with the given word count.
func NewPerfect(words int) *Perfect {
	if words <= 0 {
		panic(fmt.Sprintf("mem: invalid word count %d", words))
	}
	return &Perfect{data: make([]uint32, words)}
}

// Read returns the word at addr.
func (p *Perfect) Read(addr int) uint32 { return p.data[addr] }

// ReadChecked is Read; a fault-free memory never flags.
func (p *Perfect) ReadChecked(addr int) (uint32, bool) { return p.data[addr], false }

// Write stores v at addr.
func (p *Perfect) Write(addr int, v uint32) { p.data[addr] = v }

// Words returns the address space size.
func (p *Perfect) Words() int { return len(p.data) }

// ReadBatch reads addr+i into dst[i]; it never flags.
func (p *Perfect) ReadBatch(addr int, dst []uint32, _ *DUESet, _ int) {
	copy(dst, p.data[addr:addr+len(dst)])
}

// ImageKey identifies the (identity) encode transform.
func (p *Perfect) ImageKey() string { return ImageKeyRaw32 }

// EncodeImage widens src into img (the physical word is the datum).
func (p *Perfect) EncodeImage(img []uint64, src []uint32) { EncodeRaw32(img, src) }

// WriteImage stores a precomputed image at addr+i.
func (p *Perfect) WriteImage(addr int, img []uint64) {
	dst := p.data[addr : addr+len(img)]
	for i, w := range img {
		dst[i] = uint32(w)
	}
}

// Raw is an unprotected faulty memory: the "No Correction" arm of the
// paper's comparisons. Faults corrupt data with nothing in the way.
type Raw struct {
	arr *sram.Array
	buf []uint64 // batch-read staging scratch
}

// NewRaw builds an unprotected memory over rows words with the given
// data-geometry fault map.
func NewRaw(rows int, faults fault.Map) (*Raw, error) {
	arr := sram.NewArray(rows, DataWidth)
	if err := arr.SetFaults(faults); err != nil {
		return nil, err
	}
	return &Raw{arr: arr}, nil
}

// Reset reinstalls a new data-geometry fault map in place (see
// Resetter).
func (r *Raw) Reset(dataFaults fault.Map) error { return r.arr.SetFaults(dataFaults) }

// Read returns the (possibly corrupted) word at addr.
func (r *Raw) Read(addr int) uint32 { return uint32(r.arr.Read(addr)) }

// ReadChecked is Read; an unprotected memory has no code and cannot
// detect, so it never flags.
func (r *Raw) ReadChecked(addr int) (uint32, bool) { return r.Read(addr), false }

// Write stores v at addr.
func (r *Raw) Write(addr int, v uint32) { r.arr.Write(addr, uint64(v)) }

// Words returns the address space size.
func (r *Raw) Words() int { return r.arr.Rows() }

// ReadBatch reads addr+i into dst[i]; it never flags (see ReadChecked).
func (r *Raw) ReadBatch(addr int, dst []uint32, _ *DUESet, _ int) {
	r.buf = growBuf(r.buf, len(dst))
	r.arr.ReadBatch(addr, r.buf)
	for i, w := range r.buf {
		dst[i] = uint32(w)
	}
}

// ImageKey identifies the (identity) encode transform.
func (r *Raw) ImageKey() string { return ImageKeyRaw32 }

// EncodeImage widens src into img (the physical word is the datum).
func (r *Raw) EncodeImage(img []uint64, src []uint32) { EncodeRaw32(img, src) }

// WriteImage stores a precomputed image at addr+i, subject to the
// array's stuck-at masks.
func (r *Raw) WriteImage(addr int, img []uint64) { r.arr.WriteBatch(addr, img) }

// Array exposes the underlying bit-cell array (for BIST and tests).
func (r *Raw) Array() *sram.Array { return r.arr }

// Stats counts decode outcomes of an ECC-protected memory.
type Stats struct {
	Reads         uint64 // total read accesses
	Corrected     uint64 // reads where a single error was repaired
	Uncorrectable uint64 // reads returning detected-uncorrectable data
}

// Compile-time interface checks.
var (
	_ Word32 = (*Perfect)(nil)
	_ Word32 = (*Raw)(nil)
	_ Word32 = (*ECC)(nil)
	_ Word32 = (*PECC)(nil)

	_ Resetter = (*Raw)(nil)
	_ Resetter = (*ECC)(nil)
	_ Resetter = (*PECC)(nil)
)
