package exp

import (
	"context"
	"fmt"

	"faultmem/internal/core"
	"faultmem/internal/ecc"
	"faultmem/internal/hw"
)

// Fig6Params configures the hardware overhead comparison.
type Fig6Params struct {
	// Rows is the macro depth (4096 words = 16 KB of 32-bit words).
	Rows int
}

// DefaultFig6Params matches the paper's 16 KB macro.
func DefaultFig6Params() Fig6Params { return Fig6Params{Rows: 4096} }

// Fig6Result bundles the relative table, the absolute overheads, and the
// §5.1 savings summary.
type Fig6Result struct {
	Relative []hw.Relative
	Absolute []hw.Overhead
	Savings  hw.Savings
	PECCBest [3]float64 // best shuffle reduction vs P-ECC: power, delay, area (%)
}

// Fig6 evaluates the gate-level overhead model.
func Fig6(p Fig6Params) Fig6Result {
	lib := hw.Lib28nm()
	macro := hw.Macro28nm(p.Rows)
	res := Fig6Result{
		Relative: hw.Fig6Table(lib, macro),
		Savings:  hw.ShuffleSavingsVsECC(lib, macro),
	}
	for _, arm := range []Protection{ProtShuffle1, ProtShuffle2, ProtShuffle3, ProtShuffle4, ProtShuffle5} {
		res.Absolute = append(res.Absolute, shuffleOverhead(lib, macro, arm))
	}
	res.Absolute = append(res.Absolute, hw.PECCOverhead(lib, macro))
	res.Absolute = append(res.Absolute, eccOverhead(lib, macro))

	pecc := hw.PECCOverhead(lib, macro)
	best := shuffleOverhead(lib, macro, ProtShuffle1)
	res.PECCBest = [3]float64{
		100 * (1 - best.ReadEnergy/pecc.ReadEnergy),
		100 * (1 - best.ReadDelay/pecc.ReadDelay),
		100 * (1 - best.Area/pecc.Area),
	}
	return res
}

func shuffleOverhead(lib hw.Library, macro hw.Macro, p Protection) hw.Overhead {
	return hw.ShuffleOverhead(lib, macro, core.Config{Width: 32, NFM: p.NFM()})
}

func eccOverhead(lib hw.Library, macro hw.Macro) hw.Overhead {
	return hw.ECCOverhead(lib, macro, ecc.H39_32())
}

// Fig6RelativeTable renders the headline Fig. 6 comparison.
func (r Fig6Result) Fig6RelativeTable() *Table {
	t := &Table{
		Title:  "Fig. 6 - read power / read delay / area overhead relative to H(39,32) SECDED",
		Header: []string{"scheme", "read power", "read delay", "area"},
		Notes: []string{
			fmt.Sprintf("shuffle savings vs SECDED: power %.0f-%.0f%%, delay %.0f-%.0f%%, area %.0f-%.0f%% (paper Section 5.1: 20-83%%, 41-77%%, 32-89%%)",
				r.Savings.PowerMin, r.Savings.PowerMax, r.Savings.DelayMin, r.Savings.DelayMax, r.Savings.AreaMin, r.Savings.AreaMax),
			fmt.Sprintf("best shuffle vs P-ECC: power %.0f%%, delay %.0f%%, area %.0f%% reduction (paper: up to 59%%, 64%%, 57%%)",
				r.PECCBest[0], r.PECCBest[1], r.PECCBest[2]),
		},
	}
	for _, row := range r.Relative {
		t.AddRow(row.Name,
			fmt.Sprintf("%.3f", row.Power),
			fmt.Sprintf("%.3f", row.Delay),
			fmt.Sprintf("%.3f", row.Area))
	}
	return t
}

// AbsoluteTable renders the underlying absolute model outputs.
func (r Fig6Result) AbsoluteTable() *Table {
	t := &Table{
		Title:  "Fig. 6 underlying - absolute read-path overheads (28nm-class model)",
		Header: []string{"scheme", "read energy [fJ]", "read delay [ps]", "area [um^2]", "extra columns", "logic gates"},
	}
	for _, o := range r.Absolute {
		t.AddRow(o.Name,
			fmt.Sprintf("%.1f", o.ReadEnergy),
			fmt.Sprintf("%.1f", o.ReadDelay),
			fmt.Sprintf("%.0f", o.Area),
			fmt.Sprintf("%d", o.Columns),
			fmt.Sprintf("%d", o.LogicGates))
	}
	return t
}

// fig6Experiment adapts the overhead model to the registry.
type fig6Experiment struct{}

func (fig6Experiment) Name() string { return "fig6" }
func (fig6Experiment) Description() string {
	return "read power / delay / area overhead vs H(39,32) SECDED (Fig. 6)"
}
func (fig6Experiment) DefaultParams() any { return DefaultFig6Params() }

func (e fig6Experiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[Fig6Params](r, e)
	if err != nil {
		return nil, err
	}
	if p.Rows < 1 {
		return nil, fmt.Errorf("exp: %s params: Rows = %d, want >= 1", e.Name(), p.Rows)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := Fig6(p)
	return &Result{Experiment: e.Name(), Params: p,
		Tables: []*Table{res.Fig6RelativeTable(), res.AbsoluteTable()}}, nil
}
