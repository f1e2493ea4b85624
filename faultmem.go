// Package faultmem is a Go reproduction of "Mitigating the Impact of
// Faults in Unreliable Memories for Error-Resilient Applications"
// (Ganapathy, Karakonstantis, Teman & Burg, DAC 2015).
//
// Instead of correcting memory faults with error-correcting codes, the
// paper's bit-shuffling scheme rotates each data word on write so that
// its least significant bits land on the row's faulty cells (recorded in
// an nFM-bit-per-row fault-map look-up table programmed by BIST), bounding
// the error magnitude of a single fault to 2^(S-1) for segment size
// S = W/2^nFM. This package is the public facade over the full
// reproduction:
//
//   - protected memories: bit-shuffling (the paper's scheme), H(39,32)
//     SECDED ECC, H(22,16) priority ECC, and an unprotected baseline —
//     all behind the Memory interface;
//   - fault-map generation from failure counts, cell failure
//     probabilities, or supply voltages (with the fault-inclusion
//     property);
//   - the calibrated 28 nm 6T cell-failure model of Fig. 2;
//   - March-test BIST that discovers faults and programs the FM-LUT;
//   - the gate-level hardware overhead model of Fig. 6; and
//   - the quality-aware yield analysis of Fig. 5 (Eqs. 3-6).
//
// The experiment harness regenerating every figure and table of the
// paper lives in cmd/faultmem; runnable walkthroughs live in examples/.
package faultmem

import (
	"faultmem/internal/core"
	"faultmem/internal/fault"
	"faultmem/internal/mem"
	"faultmem/internal/redund"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
)

// Memory is a 32-bit word-addressable memory; every protection scheme in
// this package implements it. Besides word reads and writes it carries
// the batch read, the checked read that reports detected-uncorrectable
// words, and the image write the round trips page data with.
type Memory = mem.Word32

// Fault is one faulty bit-cell at (Row, Col) with a failure mode.
type Fault = fault.Fault

// FaultMap is the set of faulty cells of one memory sample.
type FaultMap = fault.Map

// FaultKind is a bit-cell failure mode.
type FaultKind = fault.Kind

// Bit-cell failure modes.
const (
	// Flip reads back the inverse of the stored bit (the paper's Eq. 6
	// fault model).
	Flip = fault.Flip
	// StuckAt0 forces the cell to 0.
	StuckAt0 = fault.StuckAt0
	// StuckAt1 forces the cell to 1.
	StuckAt1 = fault.StuckAt1
)

// ShuffleConfig selects the word width and FM-LUT entry width of the
// bit-shuffling scheme (Eqs. 1-2).
type ShuffleConfig = core.Config

// ShuffledMemory is a faulty memory protected by the paper's
// bit-shuffling scheme.
type ShuffledMemory = core.Shuffled

// ECCStats counts decode outcomes of the ECC-protected memories.
type ECCStats = mem.Stats

// Rows16KB is the word count of the paper's 16 KB evaluation macro at
// 32-bit words.
const Rows16KB = 4096

// NewShuffledMemory builds a bit-shuffling memory with nFM-bit FM-LUT
// entries over rows 32-bit words carrying the given fault map. The FM-LUT
// is programmed from the map exactly as BIST would; use RunBISTAndProgram
// for the explicit power-on self-test flow.
func NewShuffledMemory(nfm, rows int, faults FaultMap) (*ShuffledMemory, error) {
	return core.NewShuffled(core.Config{Width: 32, NFM: nfm}, rows, faults)
}

// NewECCMemory builds an H(39,32) SECDED-protected memory: the
// conventional full-correction baseline of the paper's comparison.
func NewECCMemory(rows int, faults FaultMap) (*mem.ECC, error) {
	return mem.NewECC(rows, faults, nil)
}

// NewPECCMemory builds an H(22,16) priority-ECC memory protecting only
// the 16 most significant bits of each word [Lee et al.; Emre et al.].
func NewPECCMemory(rows int, faults FaultMap) (*mem.PECC, error) {
	return mem.NewPECC(rows, faults, nil)
}

// NewPartialECCMemory generalizes the priority-ECC split: the
// protectedMSBs most significant bits (1..31) are covered by the
// matching SECDED code, the rest stored raw.
func NewPartialECCMemory(rows, protectedMSBs int, faults FaultMap) (*mem.PECC, error) {
	return mem.NewPartialECC(rows, protectedMSBs, faults, nil)
}

// NewRawMemory builds an unprotected faulty memory (the "No Correction"
// arm).
func NewRawMemory(rows int, faults FaultMap) (*mem.Raw, error) {
	return mem.NewRaw(rows, faults)
}

// NewPerfectMemory builds an ideal fault-free memory.
func NewPerfectMemory(rows int) Memory { return mem.NewPerfect(rows) }

// GenerateFaultCount draws a fault map with exactly n flip-faults placed
// uniformly over a rows x 32 data array (the paper's per-failure-count
// injection).
func GenerateFaultCount(seed int64, rows, n int) FaultMap {
	return fault.GenerateCount(stats.NewRand(seed), rows, 32, n, fault.Flip)
}

// GenerateFaultsPcell draws a fault map where each cell of a rows x 32
// array fails independently with probability pcell (Eq. 4).
func GenerateFaultsPcell(seed int64, rows int, pcell float64) FaultMap {
	return fault.GeneratePcell(stats.NewRand(seed), rows, 32, pcell, fault.Flip)
}

// RepairBudget is the spare-row/spare-column allowance of the
// traditional redundancy-repair baseline (§2).
type RepairBudget = redund.Budget

// NewRepairedMemory builds the traditional redundancy baseline: spare
// lines replace faulty rows/columns. The boolean reports whether the die
// was repairable within the budget (an unrepairable die is rejected, the
// classic yield loss the paper's scheme avoids).
func NewRepairedMemory(rows int, faults FaultMap, budget RepairBudget) (Memory, bool, error) {
	m, ok, err := redund.NewRepaired(rows, faults, budget)
	if err != nil || !ok {
		return nil, ok, err
	}
	return m, true, nil
}

// MinSpareLines returns the König lower bound on the number of spare
// lines (rows + columns) needed to repair the fault map.
func MinSpareLines(faults FaultMap) int { return redund.MinSpares(faults) }

// CellModel is the calibrated 28 nm 6T SRAM failure model of Fig. 2.
type CellModel = sram.CellModel

// Default28nmCellModel returns the calibrated Pcell-vs-VDD model.
func Default28nmCellModel() *CellModel { return sram.Default28nm() }

// CriticalVoltages carries per-cell critical supply voltages realizing
// the fault-inclusion property of voltage scaling.
type CriticalVoltages = fault.CriticalVoltages

// SampleDie draws one die's per-cell critical voltages for a rows x 32
// array from the cell model; AtVDD then yields the fault map at any
// operating voltage (faults at higher VDD persist at all lower VDD).
func SampleDie(seed int64, rows int, model *CellModel) *CriticalVoltages {
	return fault.SampleCriticalVoltages(stats.NewRand(seed), rows, 32, model)
}
