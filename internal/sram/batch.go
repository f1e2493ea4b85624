package sram

import (
	"fmt"

	"faultmem/internal/bits"
)

// WriteBatch stores vals[i] into row r+i for every element. It is
// semantically identical to calling Write per row — the same stuck-at
// store effect, coupling behaviour, and access accounting — but applies
// the per-row fault masks in one tight loop over the row range. Arrays
// with coupling faults fall back to the scalar path, whose
// transition-ordering semantics a vectorized store cannot reproduce.
func (a *Array) WriteBatch(r int, vals []uint64) {
	if r < 0 || len(vals) > a.rows-r {
		panic(fmt.Sprintf("sram: write batch [%d,%d) out of %d", r, r+len(vals), a.rows))
	}
	if len(a.couplings) != 0 {
		for i, v := range vals {
			a.Write(r+i, v)
		}
		return
	}
	a.writes += uint64(len(vals))
	m := bits.Mask(a.width)
	data := a.data[r : r+len(vals)]
	sa0 := a.sa0[r : r+len(vals)]
	sa1 := a.sa1[r : r+len(vals)]
	for i, v := range vals {
		data[i] = (v & m &^ sa0[i]) | sa1[i]
	}
}

// ReadBatch reads rows r+i into out[i] for every element, semantically
// identical to calling Read per row in ascending order: the same flip
// masks and access accounting. With transient soft errors enabled each
// row draws its soft-error mask in ascending row order, the order Read
// per row draws them, so every downstream sample is preserved exactly.
func (a *Array) ReadBatch(r int, out []uint64) {
	if r < 0 || len(out) > a.rows-r {
		panic(fmt.Sprintf("sram: read batch [%d,%d) out of %d", r, r+len(out), a.rows))
	}
	a.reads += uint64(len(out))
	m := bits.Mask(a.width)
	data := a.data[r : r+len(out)]
	flip := a.flip[r : r+len(out)]
	if a.transientRate > 0 {
		for i := range out {
			out[i] = (data[i] ^ flip[i] ^ a.transientMask()) & m
		}
		return
	}
	for i := range out {
		out[i] = (data[i] ^ flip[i]) & m
	}
}
