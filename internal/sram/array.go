// Package sram provides the bit-accurate functional model of an SRAM
// macro with persistent bit-cell faults, together with the statistical
// 28 nm 6T cell-failure model that drives the paper's voltage-scaling
// analysis (Fig. 2).
//
// An Array behaves like the raw bit-cell matrix of Fig. 1: R rows of
// W-bit words, where individual cells can be faulty (flip or stuck-at).
// Protection schemes (ECC, P-ECC, bit-shuffling) wrap an Array and
// implement their datapaths on top of its raw Read/Write.
package sram

import (
	"fmt"
	"math/rand"

	"faultmem/internal/bits"
	"faultmem/internal/fault"
)

// Array is a functional R x W SRAM bit-cell array with persistent faults.
//
// Fault semantics:
//   - Flip: the cell reads back the inverse of what was stored.
//   - StuckAt0/StuckAt1: the cell stores the stuck value regardless of the
//     datum; reads return the stuck value.
//
// Faults are persistent: they corrupt every access until the map changes,
// matching variation-induced failures fixed at manufacturing (§2).
type Array struct {
	rows, width int
	data        []uint64
	flip        []uint64 // per-row XOR mask applied on read
	sa0         []uint64 // per-row mask of cells stuck at 0
	sa1         []uint64 // per-row mask of cells stuck at 1
	faults      fault.Map

	// Soft errors (SetTransient): the per-cell flip probability per
	// read, 1/log1p(-rate) for the gap draw, the source, and the
	// countdown, the number of cells read before the next flip (< 0
	// until the first read after SetTransient draws it).
	transientRate  float64
	transientScale float64
	transientSrc   rand.Source
	transientLeft  int64

	// couplings holds CFid faults bucketed by aggressor row for the
	// write path.
	couplings map[int][]fault.Coupling

	reads, writes uint64 // access counters for energy accounting
}

// NewArray creates a fault-free rows x width array. Width must be within
// (0, 64]; rows positive.
func NewArray(rows, width int) *Array {
	if rows <= 0 {
		panic(fmt.Sprintf("sram: invalid row count %d", rows))
	}
	bits.CheckWidth(width)
	return &Array{
		rows:  rows,
		width: width,
		data:  make([]uint64, rows),
		flip:  make([]uint64, rows),
		sa0:   make([]uint64, rows),
		sa1:   make([]uint64, rows),
	}
}

// Rows16KB returns the row count of a 16 KB macro with the given word
// width (the paper's evaluation memory: 16 KB => 4096 words of 32 bits).
func Rows16KB(width int) int {
	const bits16KB = 16 * 1024 * 8
	return bits16KB / width
}

// New16KB creates a fault-free 16 KB array of 32-bit words.
func New16KB() *Array { return NewArray(Rows16KB(32), 32) }

// Rows returns the number of rows (words).
func (a *Array) Rows() int { return a.rows }

// Width returns the word width in bits.
func (a *Array) Width() int { return a.width }

// Cells returns the total bit-cell count M = R x W.
func (a *Array) Cells() int { return a.rows * a.width }

// SetFaults installs a fault map, replacing any previous one. The stored
// data is preserved, but stuck-at faults immediately overwrite the
// affected stored bits (the cell physically cannot hold the datum).
func (a *Array) SetFaults(m fault.Map) error {
	if err := m.Validate(a.rows, a.width); err != nil {
		return err
	}
	for r := range a.flip {
		a.flip[r], a.sa0[r], a.sa1[r] = 0, 0, 0
	}
	for _, f := range m {
		b := uint64(1) << uint(f.Col)
		switch f.Kind {
		case fault.Flip:
			a.flip[f.Row] |= b
		case fault.StuckAt0:
			a.sa0[f.Row] |= b
		case fault.StuckAt1:
			a.sa1[f.Row] |= b
		default:
			return fmt.Errorf("sram: unknown fault kind %v", f.Kind)
		}
	}
	// Keep a private copy of the map, reusing the previous copy's
	// storage: repeated SetFaults on one array (the per-trial
	// Monte-Carlo path) stay allocation-free once warm.
	a.faults = append(a.faults[:0], m...)
	for r := range a.data {
		a.data[r] = a.storeEffect(r, a.data[r])
	}
	return nil
}

// Faults returns a copy of the installed fault map.
func (a *Array) Faults() fault.Map { return a.faults.Clone() }

// SetCouplings installs idempotent coupling faults (replacing any
// previous set). Coupling faults fire on writes: when the aggressor
// cell's stored value undergoes the trigger transition, the victim
// cell's stored value toggles.
func (a *Array) SetCouplings(cs []fault.Coupling) error {
	for i, c := range cs {
		if err := c.Validate(a.rows, a.width); err != nil {
			return fmt.Errorf("sram: coupling %d: %w", i, err)
		}
	}
	if len(cs) == 0 {
		a.couplings = nil
		return nil
	}
	a.couplings = make(map[int][]fault.Coupling)
	for _, c := range cs {
		a.couplings[c.AggRow] = append(a.couplings[c.AggRow], c)
	}
	return nil
}

// storeEffect applies the stuck-at behaviour to a value being stored in
// row r.
func (a *Array) storeEffect(r int, v uint64) uint64 {
	return (v &^ a.sa0[r]) | a.sa1[r]
}

// Write stores the low W bits of v into row r, subject to stuck-at
// faults. Coupling faults whose aggressor cell transitions during this
// write toggle their victims' stored bits.
func (a *Array) Write(r int, v uint64) {
	if r < 0 || r >= a.rows {
		panic(fmt.Sprintf("sram: write row %d out of %d", r, a.rows))
	}
	a.writes++
	old := a.data[r]
	a.data[r] = a.storeEffect(r, v&bits.Mask(a.width))
	if len(a.couplings) == 0 {
		return
	}
	cur := a.data[r]
	for _, c := range a.couplings[r] {
		oldBit := (old >> uint(c.AggCol)) & 1
		newBit := (cur >> uint(c.AggCol)) & 1
		fired := (c.Trigger == fault.Rise && oldBit == 0 && newBit == 1) ||
			(c.Trigger == fault.Fall && oldBit == 1 && newBit == 0)
		if !fired {
			continue
		}
		// Toggle the victim's stored value (no cascade: CFid is a
		// single-level disturbance, and stuck-at victims cannot move).
		flipped := a.data[c.VicRow] ^ (uint64(1) << uint(c.VicCol))
		a.data[c.VicRow] = a.storeEffect(c.VicRow, flipped)
		if c.VicRow == r {
			cur = a.data[r]
		}
	}
}

// Read returns the W-bit word at row r, subject to flip faults (stuck-at
// faults already corrupted the stored value) and, when enabled, transient
// soft errors.
func (a *Array) Read(r int) uint64 {
	if r < 0 || r >= a.rows {
		panic(fmt.Sprintf("sram: read row %d out of %d", r, a.rows))
	}
	a.reads++
	return (a.data[r] ^ a.flip[r] ^ a.transientMask()) & bits.Mask(a.width)
}

// Peek returns the stored word of row r without fault application or
// access accounting. It models a design-for-test backdoor and is used by
// tests to distinguish storage corruption from read corruption.
func (a *Array) Peek(r int) uint64 { return a.data[r] }

// AccessCounts returns the cumulative numbers of reads and writes.
func (a *Array) AccessCounts() (reads, writes uint64) { return a.reads, a.writes }

// ResetAccessCounts zeroes the access counters.
func (a *Array) ResetAccessCounts() { a.reads, a.writes = 0, 0 }

// Fill writes v to every row.
func (a *Array) Fill(v uint64) {
	for r := 0; r < a.rows; r++ {
		a.Write(r, v)
	}
}
