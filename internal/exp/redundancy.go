package exp

import (
	"context"
	"fmt"

	"faultmem/internal/fault"
	"faultmem/internal/redund"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
)

// RedundancyParams configures the spare-line economics study of §2: how
// many spare rows/columns a die needs as Pcell grows, and what fraction
// of dies each fixed budget repairs.
type RedundancyParams struct {
	// Rows is the macro depth.
	Rows int
	// VDDs are the operating points swept (Pcell derived from the cell
	// model at each).
	VDDs []float64
	// Budgets are the spare configurations evaluated.
	Budgets []redund.Budget
	// Dies is the Monte-Carlo die count per point.
	Dies int
	// Seed drives the sampling.
	Seed int64
}

// DefaultRedundancyParams sweeps the voltage range of Fig. 2.
func DefaultRedundancyParams() RedundancyParams {
	return RedundancyParams{
		Rows: 4096,
		VDDs: []float64{0.82, 0.78, 0.74, 0.70, 0.66, 0.62},
		Budgets: []redund.Budget{
			{SpareRows: 2, SpareCols: 2},
			{SpareRows: 8, SpareCols: 8},
			{SpareRows: 16, SpareCols: 16},
		},
		Dies: 300,
		Seed: 17,
	}
}

// RedundancyRow is one operating point of the study.
type RedundancyRow struct {
	VDD           float64
	Pcell         float64
	MeanFaults    float64
	MeanMinSpares float64   // König lower bound on lines needed
	RepairRate    []float64 // fraction of dies repairable per budget
}

// RedundancyStudyCtx runs the Monte Carlo, polling ctx between
// operating points.
func RedundancyStudyCtx(ctx context.Context, p RedundancyParams) ([]RedundancyRow, error) {
	if p.Rows < 1 || p.Dies < 1 {
		return nil, fmt.Errorf("exp: redundancy params: Rows = %d, Dies = %d; want both >= 1", p.Rows, p.Dies)
	}
	model := sram.Default28nm()
	var out []RedundancyRow
	for vi, v := range p.VDDs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng := stats.Derive(p.Seed, int64(vi))
		pc := model.Pcell(v)
		row := RedundancyRow{VDD: v, Pcell: pc, RepairRate: make([]float64, len(p.Budgets))}
		sumFaults, sumSpares := 0.0, 0.0
		repaired := make([]int, len(p.Budgets))
		for d := 0; d < p.Dies; d++ {
			n := stats.SampleBinomial(rng, p.Rows*32, pc)
			var fm fault.Map
			if n > 0 {
				fm = fault.GenerateCount(rng, p.Rows, 32, n, fault.Flip)
			}
			sumFaults += float64(n)
			sumSpares += float64(redund.MinSpares(fm))
			for bi, b := range p.Budgets {
				if _, ok := redund.Allocate(fm, b); ok {
					repaired[bi]++
				}
			}
		}
		row.MeanFaults = sumFaults / float64(p.Dies)
		row.MeanMinSpares = sumSpares / float64(p.Dies)
		for bi := range p.Budgets {
			row.RepairRate[bi] = float64(repaired[bi]) / float64(p.Dies)
		}
		out = append(out, row)
	}
	return out, nil
}

// redundancyExperiment adapts the spare-line economics study to the
// registry.
type redundancyExperiment struct{}

func (redundancyExperiment) Name() string { return "redundancy" }
func (redundancyExperiment) Description() string {
	return "spare-row/column economics under VDD scaling (Section 2)"
}
func (redundancyExperiment) DefaultParams() any { return DefaultRedundancyParams() }

func (e redundancyExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[RedundancyParams](r, e)
	if err != nil {
		return nil, err
	}
	p.Seed = r.seedOr(p.Seed)
	if r.quick() && p.Dies > 100 {
		p.Dies = 100
	}
	rows, err := RedundancyStudyCtx(ctx, p)
	if err != nil {
		return nil, err
	}
	return &Result{Experiment: e.Name(), Params: p, Tables: []*Table{RedundancyTable(rows, p)}}, nil
}

// RedundancyTable renders the study.
func RedundancyTable(rows []RedundancyRow, p RedundancyParams) *Table {
	header := []string{"VDD [V]", "Pcell", "mean faults", "mean min spares"}
	for _, b := range p.Budgets {
		header = append(header, fmt.Sprintf("repair@%d+%d", b.SpareRows, b.SpareCols))
	}
	t := &Table{
		Title:  "Redundancy economics (Section 2) - spare lines needed under VDD scaling",
		Header: header,
		Notes: []string{
			"mean min spares is the Konig lower bound (max matching) on replaced lines per die;",
			"it saturates at 32 because replacing all 32 columns rebuilds the whole array -",
			"the degenerate endpoint of redundancy economics",
			"repair@R+C is the fraction of dies repairable with R spare rows + C spare columns -",
			"the paper's argument: spares scale with the failure count while the bit-shuffling",
			"FM-LUT cost is fixed, so redundancy becomes unviable first",
		},
	}
	for _, r := range rows {
		row := []string{
			fmt.Sprintf("%.2f", r.VDD),
			fmt.Sprintf("%.2e", r.Pcell),
			fmt.Sprintf("%.1f", r.MeanFaults),
			fmt.Sprintf("%.1f", r.MeanMinSpares),
		}
		for _, rr := range r.RepairRate {
			row = append(row, fmt.Sprintf("%.3f", rr))
		}
		t.AddRow(row...)
	}
	return t
}
