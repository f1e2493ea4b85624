package hw

import (
	"fmt"

	"faultmem/internal/core"
)

// LUTRealization selects how the bit-shuffling fault-map LUT is built —
// the §5.1 trade-off: SRAM columns are the most straightforward
// realization but force a read-before-write (the shift amount must be
// fetched before the rotated word can be stored); a register file holds
// the entries in flops, removing the write-latency penalty at a large
// area cost for deep macros.
type LUTRealization int

const (
	// LUTColumns stores the FM-LUT as nFM extra bit columns of the array
	// (the paper's default realization).
	LUTColumns LUTRealization = iota
	// LUTRegisterFile stores the FM-LUT in a flip-flop register file.
	LUTRegisterFile
)

// String names the realization.
func (r LUTRealization) String() string {
	switch r {
	case LUTColumns:
		return "SRAM columns"
	case LUTRegisterFile:
		return "register file"
	default:
		return fmt.Sprintf("lut(%d)", int(r))
	}
}

// WriteOverhead is the write-path overhead of a scheme over an
// unprotected array write.
type WriteOverhead struct {
	Name string
	// Energy is the extra energy per write access in fJ.
	Energy float64
	// Delay is the extra latency on the write path in ps (including any
	// read-before-write serialization).
	Delay float64
	// LUTArea is the area of the fault-map storage under the chosen
	// realization in µm².
	LUTArea float64
}

// ShuffleWriteOverhead returns the write-path cost of bit-shuffling
// under the chosen LUT realization. With the LUT in SRAM columns, every
// write is preceded by a LUT read — a full array access of
// serialization (the paper's "write latency ... requires a read prior to
// a write", §5.1). With a register file the entry is available
// immediately and only the shifter remains on the path, but the flops
// cost rows*nFM DFF of area.
func ShuffleWriteOverhead(l Library, m Macro, cfg core.Config, real LUTRealization) WriteOverhead {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shifter := l.BarrelShifter(cfg.Width, cfg.NFM)
	amount := l.ShiftAmountLogic(cfg.NFM)
	o := WriteOverhead{
		Name:   fmt.Sprintf("nFM=%d shuffle (%s LUT)", cfg.NFM, real),
		Energy: shifter.Energy + amount.Energy + float64(cfg.NFM)*m.ColReadEnergy,
		Delay:  shifter.Delay + amount.Delay,
	}
	switch real {
	case LUTColumns:
		// Read-before-write: the LUT entry comes from the array itself.
		o.Delay += m.AccessDelay
		o.LUTArea = m.Columns(cfg.NFM).Area
	case LUTRegisterFile:
		o.LUTArea = float64(m.Rows) * float64(cfg.NFM) * l.DFF.Area
	default:
		panic(fmt.Sprintf("hw: unknown LUT realization %d", int(real)))
	}
	return o
}

// LUTAblation compares the two FM-LUT realizations at every nFM for the
// given macro: the §5.1 remark quantified.
type LUTAblationRow struct {
	NFM               int
	ColumnArea        float64 // µm²
	RegFileArea       float64 // µm²
	ColumnWriteDelay  float64 // ps
	RegFileWriteDelay float64 // ps
	ReadDelay         float64 // ps (identical for both realizations)
}

// LUTAblation evaluates the trade-off table.
func LUTAblation(l Library, m Macro) []LUTAblationRow {
	var rows []LUTAblationRow
	for nfm := 1; nfm <= 5; nfm++ {
		cfg := core.Config{Width: 32, NFM: nfm}
		col := ShuffleWriteOverhead(l, m, cfg, LUTColumns)
		reg := ShuffleWriteOverhead(l, m, cfg, LUTRegisterFile)
		read := ShuffleOverhead(l, m, cfg)
		rows = append(rows, LUTAblationRow{
			NFM:               nfm,
			ColumnArea:        col.LUTArea,
			RegFileArea:       reg.LUTArea,
			ColumnWriteDelay:  col.Delay,
			RegFileWriteDelay: reg.Delay,
			ReadDelay:         read.ReadDelay,
		})
	}
	return rows
}
