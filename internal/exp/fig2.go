package exp

import (
	"context"
	"fmt"

	"faultmem/internal/sram"
	"faultmem/internal/stats"
)

// Fig2Params configures the cell-failure-probability sweep of Fig. 2.
type Fig2Params struct {
	// VMin, VMax, Step define the VDD sweep in volts.
	VMin, VMax, Step float64
	// ISDirections is the sample count of the spherical importance-
	// sampling estimator (0 disables the 6T cross-check columns).
	ISDirections int
	// MemoryBytes sizes the worst-case yield column (16 KB in the paper).
	MemoryBytes int
	// Seed drives the IS estimator.
	Seed int64
}

// DefaultFig2Params matches the published sweep: 0.6-1.0 V for a 16 KB
// memory.
func DefaultFig2Params() Fig2Params {
	return Fig2Params{VMin: 0.60, VMax: 1.00, Step: 0.02, ISDirections: 20000, MemoryBytes: 16 * 1024, Seed: 2}
}

// Fig2Row is one sweep point: the analytic and importance-sampled cell
// failure probabilities and the traditional zero-failure yield of the
// memory.
type Fig2Row struct {
	VDD            float64
	PcellAnalytic  float64
	PcellIS        float64 // -1 when IS disabled
	ZeroFailYield  float64
	ExpectFailures float64
}

// Fig2 runs the sweep from VMax down to VMin, polling ctx between
// sweep points (each point pays one importance-sampling estimate): the
// rows are deterministic in p while the context stays live, ctx.Err()
// otherwise.
func Fig2(ctx context.Context, p Fig2Params) ([]Fig2Row, error) {
	if !(p.Step > 0) || !(p.VMax >= p.VMin) {
		return nil, fmt.Errorf("exp: fig2 params: VMin = %g, VMax = %g, Step = %g; want VMin <= VMax and Step > 0", p.VMin, p.VMax, p.Step)
	}
	model := sram.Default28nm()
	sixT := sram.NewSixT()
	rng := stats.NewRand(p.Seed)
	cells := p.MemoryBytes * 8
	var rows []Fig2Row
	for v := p.VMax; v >= p.VMin-1e-9; v -= p.Step {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := Fig2Row{
			VDD:            v,
			PcellAnalytic:  model.Pcell(v),
			PcellIS:        -1,
			ZeroFailYield:  model.Yield(v, cells),
			ExpectFailures: model.ExpectedFailures(v, cells),
		}
		if p.ISDirections > 0 {
			r.PcellIS = sixT.EstimatePcellIS(rng, v, p.ISDirections)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// fig2Experiment adapts the sweep to the registry.
type fig2Experiment struct{}

func (fig2Experiment) Name() string { return "fig2" }
func (fig2Experiment) Description() string {
	return "SRAM cell failure probability under VDD scaling (Fig. 2)"
}
func (fig2Experiment) DefaultParams() any { return DefaultFig2Params() }

func (e fig2Experiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[Fig2Params](r, e)
	if err != nil {
		return nil, err
	}
	p.Seed = r.seedOr(p.Seed)
	if r.quick() && p.ISDirections > 4000 {
		p.ISDirections = 4000
	}
	rows, err := Fig2(ctx, p)
	if err != nil {
		return nil, err
	}
	return &Result{Experiment: e.Name(), Params: p, Tables: []*Table{Fig2Table(rows)}}, nil
}

// Fig2Table renders the sweep.
func Fig2Table(rows []Fig2Row) *Table {
	t := &Table{
		Title:  "Fig. 2 - SRAM cell failure probability under VDD scaling (28nm, 6T)",
		Header: []string{"VDD [V]", "Pcell (margin model)", "Pcell (6T sphere-IS)", "zero-fail yield 16KB", "E[failures] 16KB"},
		Notes: []string{
			"margin model: Pcell = Phi(-beta(VDD)); sphere-IS: hypersphere importance sampling on the 6T limit states (DESIGN.md substitution for the paper's SPICE framework)",
			"traditional yield criterion Y = (1-Pcell)^M collapses near 0.73 V for the 16KB array (paper Section 2)",
		},
	}
	for _, r := range rows {
		is := "-"
		if r.PcellIS >= 0 {
			is = fmt.Sprintf("%.3e", r.PcellIS)
		}
		t.AddRow(
			fmt.Sprintf("%.2f", r.VDD),
			fmt.Sprintf("%.3e", r.PcellAnalytic),
			is,
			fmt.Sprintf("%.6f", r.ZeroFailYield),
			fmt.Sprintf("%.2f", r.ExpectFailures),
		)
	}
	return t
}
