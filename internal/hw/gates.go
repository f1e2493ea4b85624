// Package hw is the structural hardware cost model behind the paper's
// overhead comparison (Fig. 6). It substitutes for the authors' 28 nm
// FD-SOI synthesis flow (Synopsys DC + Cadence SoC Encounter + VCD power)
// with a gate-level model: netlists for the SECDED encoders/decoders and
// the bit-shuffling barrel shifter are sized from the code geometry, and
// an SRAM-macro column model prices the extra storage (parity bits and
// FM-LUT columns).
//
// Absolute numbers are 28 nm-class estimates; the quantities the paper
// reports — overheads *relative to H(39,32) SECDED* — depend only on the
// structure (tree depths, mux stages, column counts) and are what the
// benchmarks regenerate.
package hw

import (
	"fmt"
	"math"

	"faultmem/internal/ecc"
)

// Cost aggregates the three design metrics of a hardware block.
type Cost struct {
	// Area in square micrometers.
	Area float64
	// Delay in picoseconds along the block's critical path.
	Delay float64
	// Energy in femtojoules per access (switching, activity-weighted).
	Energy float64
	// Gates is the equivalent two-input gate count (informational).
	Gates int
}

// Plus returns the series composition: areas, energies, and gate counts
// add; delays add (the blocks are on the same path).
func (c Cost) Plus(o Cost) Cost {
	return Cost{
		Area:   c.Area + o.Area,
		Delay:  c.Delay + o.Delay,
		Energy: c.Energy + o.Energy,
		Gates:  c.Gates + o.Gates,
	}
}

// PlusParallel returns the parallel composition: areas, energies, and
// gate counts add; delay is the maximum of the two paths.
func (c Cost) PlusParallel(o Cost) Cost {
	return Cost{
		Area:   c.Area + o.Area,
		Delay:  math.Max(c.Delay, o.Delay),
		Energy: c.Energy + o.Energy,
		Gates:  c.Gates + o.Gates,
	}
}

// GateSpec is the area/delay/energy characterization of one standard
// cell.
type GateSpec struct {
	Area   float64 // µm²
	Delay  float64 // ps
	Energy float64 // fJ per output toggle
}

// Library is a standard-cell library plus the switching-activity factor
// used to convert per-toggle energies into per-access energies.
type Library struct {
	INV, NAND2, AND2, OR2, XOR2, MUX2, DFF GateSpec
	// Activity is the fraction of gates assumed to toggle per access for
	// random-data datapaths (VCD-equivalent average).
	Activity float64
	// MuxActivity is the toggle fraction of barrel-shifter muxes, which
	// route full-entropy data and so switch more than control logic.
	MuxActivity float64
}

// Lib28nm returns a 28 nm-class standard-cell characterization.
func Lib28nm() Library {
	return Library{
		INV:         GateSpec{Area: 0.49, Delay: 8, Energy: 0.35},
		NAND2:       GateSpec{Area: 0.65, Delay: 10, Energy: 0.50},
		AND2:        GateSpec{Area: 0.90, Delay: 13, Energy: 0.60},
		OR2:         GateSpec{Area: 0.90, Delay: 13, Energy: 0.60},
		XOR2:        GateSpec{Area: 1.60, Delay: 18, Energy: 1.20},
		MUX2:        GateSpec{Area: 1.50, Delay: 15, Energy: 1.00},
		DFF:         GateSpec{Area: 3.60, Delay: 0, Energy: 2.00},
		Activity:    0.25,
		MuxActivity: 0.50,
	}
}

// gates returns the cost of n instances of g arranged depth levels deep,
// with switching activity act.
func gatesCost(g GateSpec, n, depth int, act float64) Cost {
	return Cost{
		Area:   float64(n) * g.Area,
		Delay:  float64(depth) * g.Delay,
		Energy: float64(n) * g.Energy * act,
		Gates:  n,
	}
}

// treeDepth returns ceil(log2(fanIn)) for fanIn >= 1.
func treeDepth(fanIn int) int {
	if fanIn <= 1 {
		return 0
	}
	d := 0
	for (1 << uint(d)) < fanIn {
		d++
	}
	return d
}

// XORTree returns the cost of a balanced XOR reduction tree with the
// given fan-in: fanIn-1 two-input XORs, ceil(log2 fanIn) levels.
func (l Library) XORTree(fanIn int) Cost {
	if fanIn < 1 {
		panic(fmt.Sprintf("hw: XOR tree fan-in %d", fanIn))
	}
	return gatesCost(l.XOR2, fanIn-1, treeDepth(fanIn), l.Activity)
}

// ORTree returns the cost of a balanced OR reduction tree.
func (l Library) ORTree(fanIn int) Cost {
	if fanIn < 1 {
		panic(fmt.Sprintf("hw: OR tree fan-in %d", fanIn))
	}
	return gatesCost(l.OR2, fanIn-1, treeDepth(fanIn), l.Activity)
}

// SECDEDEncoder sizes the write-path encoder of a SECDED code: one XOR
// tree per Hamming parity bit (fan-in = covered data bits) plus the
// overall-parity tree over all k+r bits.
func (l Library) SECDEDEncoder(c *ecc.Code) Cost {
	hamming, overall := c.ParityFanIn()
	cost := Cost{}
	for _, f := range hamming {
		cost = cost.PlusParallel(l.XORTree(f))
	}
	return cost.PlusParallel(l.XORTree(overall))
}

// SECDEDDecoder sizes the read-path decoder: syndrome recomputation
// (one XOR tree per check bit, fan-in = covered bits + the stored check
// bit), overall-parity check over the full codeword, the syndrome-decode
// stage (one r-input AND per codeword position), and the correction XOR
// on each data bit. Critical path: deepest syndrome tree -> syndrome
// decode -> correction XOR. This is the logic that adds roughly 13 gate
// delays to the read access of an H(39,32) memory [Rossi et al., DATE'11],
// which the paper cites in §3.
func (l Library) SECDEDDecoder(c *ecc.Code) Cost {
	hamming, _ := c.ParityFanIn()
	n := c.CodewordBits()
	r := len(hamming)

	syndrome := Cost{}
	for _, f := range hamming {
		syndrome = syndrome.PlusParallel(l.XORTree(f + 1))
	}
	// Overall parity check runs in parallel with the syndrome trees.
	syndrome = syndrome.PlusParallel(l.XORTree(n))

	// Syndrome decode: n position-match ANDs of r inputs each (inverters
	// shared, counted once per syndrome bit).
	decode := gatesCost(l.AND2, n*(r-1), treeDepth(r), l.Activity)
	decode = decode.PlusParallel(gatesCost(l.INV, r, 0, l.Activity))
	// Error-flag reduction (uncorrectable detect) off the critical path.
	flags := l.ORTree(r)
	flags.Delay = 0
	decode = decode.PlusParallel(flags)

	// Correction: one XOR per data bit, single level.
	correct := gatesCost(l.XOR2, c.DataBits(), 1, l.Activity)

	return syndrome.Plus(decode).Plus(correct)
}

// BarrelShifter sizes a mux-based rotator for width-bit words with the
// given number of binary stages (stage i conditionally rotates by
// granularity*2^i). The bit-shuffling read path uses nFM stages at
// segment granularity (§3): width muxes per stage, one mux delay per
// stage. Muxes route full-entropy data, so MuxActivity applies.
func (l Library) BarrelShifter(width, stages int) Cost {
	if width < 1 || stages < 1 {
		panic(fmt.Sprintf("hw: barrel shifter %d bits x %d stages", width, stages))
	}
	return gatesCost(l.MUX2, width*stages, stages, l.MuxActivity)
}

// ShiftAmountLogic sizes the small unit computing T/S = (2^nFM - x) mod
// 2^nFM from the FM-LUT entry (a two's complement negate: inverters plus
// an increment ripple) and the read/write amount select mux. The FM-LUT
// entry is available concurrently with the array access, so this logic is
// off the read critical path; only the select mux contributes delay.
func (l Library) ShiftAmountLogic(nfm int) Cost {
	if nfm < 1 {
		panic(fmt.Sprintf("hw: shift amount width %d", nfm))
	}
	neg := gatesCost(l.INV, nfm, 0, l.Activity)
	inc := gatesCost(l.XOR2, nfm, 0, l.Activity).
		PlusParallel(gatesCost(l.AND2, nfm, 0, l.Activity))
	sel := gatesCost(l.MUX2, nfm, 1, l.Activity)
	return neg.PlusParallel(inc).Plus(sel)
}
