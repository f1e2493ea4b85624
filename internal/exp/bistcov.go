package exp

import (
	"context"
	"fmt"

	"faultmem/internal/bist"
	"faultmem/internal/fault"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
)

// BISTCoverageParams configures the March-algorithm coverage study: how
// reliably each test locates stuck-at/flip faults and — where the
// classic cost hierarchy earns its keep — idempotent coupling faults.
type BISTCoverageParams struct {
	Rows, Width int
	// StaticFaults is the number of flip/stuck-at faults per trial.
	StaticFaults int
	// Couplings is the number of CFid faults per trial.
	Couplings int
	// Trials is the Monte-Carlo repetition count.
	Trials int
	Seed   int64
}

// DefaultBISTCoverageParams uses a small array so many trials stay fast.
func DefaultBISTCoverageParams() BISTCoverageParams {
	return BISTCoverageParams{Rows: 128, Width: 32, StaticFaults: 8, Couplings: 12, Trials: 40, Seed: 23}
}

// BISTCoverageRow is one algorithm's measured coverage.
type BISTCoverageRow struct {
	Algorithm      string
	OpsPerCell     int
	StaticCoverage float64 // fraction of static faults located
	VictimCoverage float64 // fraction of coupling victims located
}

// BISTCoverage measures detection coverage per algorithm, polling
// ctx between Monte-Carlo trials: static faults must always be found
// (all algorithms read both backgrounds everywhere); coupling-fault
// coverage separates the cheap tests from the thorough ones, since
// detection requires a read of the victim between the aggressor's
// disturbing write and the victim's next rewrite.
func BISTCoverage(ctx context.Context, p BISTCoverageParams) ([]BISTCoverageRow, error) {
	// Every trial places StaticFaults distinct cells and Couplings
	// distinct victims, each with an aggressor elsewhere in the array.
	if p.Rows < 1 || p.Width < 1 || p.Width > 64 {
		return nil, fmt.Errorf("exp: bistcov params: Rows = %d, Width = %d; want Rows >= 1 and Width 1..64", p.Rows, p.Width)
	}
	if cells := p.Rows * p.Width; p.StaticFaults < 0 || p.StaticFaults > cells || p.Couplings < 0 || p.Couplings >= cells {
		return nil, fmt.Errorf("exp: bistcov params: StaticFaults = %d, Couplings = %d; want 0..%d and 0..%d on a %dx%d array",
			p.StaticFaults, p.Couplings, cells, cells-1, p.Rows, p.Width)
	}
	algs := []bist.Algorithm{bist.ZeroOne(), bist.MATSPlus(), bist.MarchCMinus(), bist.MarchB()}
	rows := make([]BISTCoverageRow, len(algs))
	for ai, alg := range algs {
		rng := stats.Derive(p.Seed, int64(ai))
		staticFound, staticTotal := 0, 0
		victimFound, victimTotal := 0, 0
		for trial := 0; trial < p.Trials; trial++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			static := fault.RandomKinds(rng,
				fault.GenerateCount(rng, p.Rows, p.Width, p.StaticFaults, fault.Flip),
				[]fault.Kind{fault.Flip, fault.StuckAt0, fault.StuckAt1})
			couplings := fault.GenerateCouplings(rng, p.Rows, p.Width, p.Couplings)
			// Keep coupling victims clear of static faults so coverage
			// attribution is unambiguous.
			staticCells := map[[2]int]bool{}
			for _, f := range static {
				staticCells[[2]int{f.Row, f.Col}] = true
			}
			arr := sram.NewArray(p.Rows, p.Width)
			if err := arr.SetFaults(static); err != nil {
				panic(err)
			}
			if err := arr.SetCouplings(couplings); err != nil {
				panic(err)
			}
			rep := bist.Run(alg, arr)
			detected := map[[2]int]bool{}
			for _, f := range rep.Detected {
				detected[[2]int{f.Row, f.Col}] = true
			}
			for _, f := range static {
				staticTotal++
				if detected[[2]int{f.Row, f.Col}] {
					staticFound++
				}
			}
			for _, c := range couplings {
				key := [2]int{c.VicRow, c.VicCol}
				if staticCells[key] {
					continue
				}
				victimTotal++
				if detected[key] {
					victimFound++
				}
			}
		}
		rows[ai] = BISTCoverageRow{
			Algorithm:      alg.Name,
			OpsPerCell:     alg.Complexity(),
			StaticCoverage: float64(staticFound) / float64(staticTotal),
			VictimCoverage: float64(victimFound) / float64(victimTotal),
		}
	}
	return rows, nil
}

// bistcovExperiment adapts the March coverage study to the registry.
type bistcovExperiment struct{}

func (bistcovExperiment) Name() string { return "bistcov" }
func (bistcovExperiment) Description() string {
	return "March-algorithm fault coverage: static vs coupling faults"
}
func (bistcovExperiment) DefaultParams() any { return DefaultBISTCoverageParams() }

func (e bistcovExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[BISTCoverageParams](r, e)
	if err != nil {
		return nil, err
	}
	p.Seed = r.seedOr(p.Seed)
	if r.quick() && p.Trials > 10 {
		p.Trials = 10
	}
	rows, err := BISTCoverage(ctx, p)
	if err != nil {
		return nil, err
	}
	return &Result{Experiment: e.Name(), Params: p, Tables: []*Table{BISTCoverageTable(rows, p)}}, nil
}

// BISTCoverageTable renders the study.
func BISTCoverageTable(rows []BISTCoverageRow, p BISTCoverageParams) *Table {
	t := &Table{
		Title:  "BIST algorithm coverage - static faults vs idempotent coupling faults (CFid)",
		Header: []string{"algorithm", "ops/cell", "static coverage", "coupling-victim coverage"},
		Notes: []string{
			fmt.Sprintf("%d trials x (%d static + %d coupling) faults on a %dx%d array",
				p.Trials, p.StaticFaults, p.Couplings, p.Rows, p.Width),
			"all algorithms read both backgrounds at every cell, so static faults are always",
			"located; coupling faults separate the tests - detecting one requires reading the",
			"victim between the aggressor's disturbing write and the victim's next rewrite,",
			"which the longer Marches' extra read-write pairs provide",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Algorithm,
			fmt.Sprintf("%d", r.OpsPerCell),
			fmt.Sprintf("%.3f", r.StaticCoverage),
			fmt.Sprintf("%.3f", r.VictimCoverage))
	}
	return t
}
