package redund

import (
	"fmt"

	"faultmem/internal/fault"
	"faultmem/internal/mem"
	"faultmem/internal/sram"
)

// Repaired is a functional memory with spare-row/spare-column repair: a
// BIST-style allocation replaces faulty lines, after which accesses to
// replaced rows go to spare storage and replaced columns are muxed to
// spare columns. If the fault map exceeds the budget the constructor
// reports failure — exactly the die-reject case of the traditional flow.
type Repaired struct {
	base      *sram.Array
	rowRemap  map[int]int // logical row -> spare row index
	spares    *sram.Array // spare rows (fault-free)
	colRemap  map[int]int // logical col -> spare col index
	spareCols *sram.Array // spare columns stored row-major (fault-free)
}

// NewRepaired builds the repaired memory over rows words with the given
// data-geometry fault map and spare budget. The second return value is
// false when the die is unrepairable within the budget.
//
// Spare lines are modeled fault-free, the customary assumption in
// redundancy analysis (spares are few and can be tested/selected).
func NewRepaired(rows int, faults fault.Map, b Budget) (*Repaired, bool, error) {
	if err := faults.Validate(rows, mem.DataWidth); err != nil {
		return nil, false, fmt.Errorf("redund: bad fault map: %w", err)
	}
	alloc, ok := Allocate(faults, b)
	if !ok {
		return nil, false, nil
	}
	base := sram.NewArray(rows, mem.DataWidth)
	if err := base.SetFaults(faults); err != nil {
		return nil, false, err
	}
	r := &Repaired{
		base:     base,
		rowRemap: map[int]int{},
		colRemap: map[int]int{},
	}
	if len(alloc.Rows) > 0 {
		r.spares = sram.NewArray(len(alloc.Rows), mem.DataWidth)
		for i, row := range alloc.Rows {
			r.rowRemap[row] = i
		}
	}
	if len(alloc.Cols) > 0 {
		r.spareCols = sram.NewArray(rows, len(alloc.Cols))
		for i, col := range alloc.Cols {
			r.colRemap[col] = i
		}
	}
	return r, true, nil
}

// Read returns the word at addr with repairs applied.
func (r *Repaired) Read(addr int) uint32 {
	if s, ok := r.rowRemap[addr]; ok {
		return uint32(r.spares.Read(s))
	}
	v := r.base.Read(addr)
	if len(r.colRemap) > 0 {
		sp := r.spareCols.Read(addr)
		for col, idx := range r.colRemap {
			bit := (sp >> uint(idx)) & 1
			v = (v &^ (uint64(1) << uint(col))) | bit<<uint(col)
		}
	}
	return uint32(v)
}

// Write stores v at addr with repairs applied.
func (r *Repaired) Write(addr int, v uint32) {
	if s, ok := r.rowRemap[addr]; ok {
		r.spares.Write(s, uint64(v))
		return
	}
	r.base.Write(addr, uint64(v))
	if len(r.colRemap) > 0 {
		var sp uint64
		for col, idx := range r.colRemap {
			sp |= ((uint64(v) >> uint(col)) & 1) << uint(idx)
		}
		r.spareCols.Write(addr, sp)
	}
}

// ReadChecked is Read; spare-line repair carries no code, so it never
// flags.
func (r *Repaired) ReadChecked(addr int) (uint32, bool) { return r.Read(addr), false }

// Words returns the address space size.
func (r *Repaired) Words() int { return r.base.Rows() }

// ReadBatch reads addr+i into dst[i] through the scalar datapath; it
// never flags (see ReadChecked).
func (r *Repaired) ReadBatch(addr int, dst []uint32, _ *mem.DUESet, _ int) {
	for i := range dst {
		dst[i] = r.Read(addr + i)
	}
}

// ImageKey identifies the (identity) encode transform: the remap is
// address-dependent, so WriteImage applies it at store time.
func (r *Repaired) ImageKey() string { return mem.ImageKeyRaw32 }

// EncodeImage widens src into img (the physical word is the datum).
func (r *Repaired) EncodeImage(img []uint64, src []uint32) { mem.EncodeRaw32(img, src) }

// WriteImage stores a precomputed image at addr+i through the scalar
// datapath.
func (r *Repaired) WriteImage(addr int, img []uint64) {
	for i, w := range img {
		r.Write(addr+i, uint32(w))
	}
}

// SparesUsed returns how many spare rows and columns the repair consumed.
func (r *Repaired) SparesUsed() (rows, cols int) {
	return len(r.rowRemap), len(r.colRemap)
}

var _ mem.Word32 = (*Repaired)(nil)
