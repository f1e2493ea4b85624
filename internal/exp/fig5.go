package exp

import (
	"context"
	"fmt"
	"math"

	"faultmem/internal/mc"
	"faultmem/internal/yield"
)

// Fig5Params configures the MSE-CDF experiment.
type Fig5Params struct {
	CDF yield.CDFParams
	// MSEGrid lists the MSE abscissas at which each scheme's CDF is
	// tabulated (the log-spaced x-axis of Fig. 5).
	MSEGrid []float64
	// YieldTargets lists CDF levels for the MSE-at-yield comparison.
	YieldTargets []float64
	// MSETarget is the yield criterion of the Section 4 discussion
	// (MSE < 1e6).
	MSETarget float64
}

// DefaultFig5Params mirrors the published setup: 16 KB memory at
// Pcell = 5e-6.
func DefaultFig5Params() Fig5Params {
	var grid []float64
	for e := -4.0; e <= 8.0; e += 0.5 {
		grid = append(grid, math.Pow(10, e))
	}
	return Fig5Params{
		CDF:          yield.DefaultCDFParams(),
		MSEGrid:      grid,
		YieldTargets: []float64{0.8, 0.9, 0.99, 0.999},
		MSETarget:    1e6,
	}
}

// Fig5Arms returns the schemes plotted in Fig. 5: no protection, the five
// shuffling configurations, and P-ECC.
func Fig5Arms() []Protection {
	return []Protection{ProtNone, ProtShuffle1, ProtShuffle2, ProtShuffle3,
		ProtShuffle4, ProtShuffle5, ProtPECC}
}

// Fig5Result bundles the per-arm CDFs.
type Fig5Result struct {
	Params Fig5Params
	Arms   []Protection
	CDFs   []yield.CDFResult
}

// Fig5Env runs the Monte-Carlo MSE CDF for every arm in one pass of the
// parallel engine: every fault map is drawn once and scored by all seven
// schemes (common random numbers), so the fault-generation cost is paid
// once instead of seven times and the between-arm reduction factors of
// YieldTable see the same samples on both sides. p.CDF.Workers sets the
// engine's parallelism; results are identical for every worker count.
// Bad CDF params return an error; a cancelled or deadlined context
// returns ctx.Err(). Shard completions reach the environment's OnShard.
func Fig5Env(env mc.Env, p Fig5Params) (Fig5Result, error) {
	arms := Fig5Arms()
	schemes := make([]yield.Scheme, len(arms))
	for i, arm := range arms {
		schemes[i] = arm.YieldScheme()
	}
	cdfs, err := yield.MSECDFAllEnv(env, p.CDF, schemes)
	if err != nil {
		return Fig5Result{}, err
	}
	return Fig5Result{Params: p, Arms: arms, CDFs: cdfs}, nil
}

// fig5Experiment adapts the MSE-CDF campaign to the registry.
type fig5Experiment struct{}

func (fig5Experiment) Name() string { return "fig5" }
func (fig5Experiment) Description() string {
	return "CDF of memory MSE per protection scheme, 16KB at Pcell=5e-6 (Fig. 5)"
}
func (fig5Experiment) DefaultParams() any { return DefaultFig5Params() }

func (e fig5Experiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[Fig5Params](r, e)
	if err != nil {
		return nil, err
	}
	p.CDF.Seed = r.seedOr(p.CDF.Seed)
	p.CDF.Workers = r.workersOr(p.CDF.Workers)
	p.CDF.Accum = r.accumOr(p.CDF.Accum)
	p.CDF.Bins = r.binsOr(p.CDF.Bins)
	if r.quick() && p.CDF.Trun > 2e4 {
		p.CDF.Trun = 2e4
	}
	res, err := Fig5Env(r.env(ctx, e.Name(), ""), p)
	if err != nil {
		return nil, err
	}
	return &Result{Experiment: e.Name(), Params: p,
		Tables: []*Table{res.CDFTable(), res.YieldTable()}}, nil
}

// CDFTable tabulates Pr(MSE <= x | N >= 1) for every arm over the grid —
// the curves of Fig. 5.
func (r Fig5Result) CDFTable() *Table {
	header := []string{"MSE"}
	for _, a := range r.Arms {
		header = append(header, a.String())
	}
	acc := "exact observation store"
	if r.CDFs[0].Histogram {
		acc = "O(1)-memory log10-MSE histogram"
	}
	t := &Table{
		Title:  "Fig. 5 - CDF of memory MSE (16KB, Pcell=5e-6), conditioned on N>=1 failures",
		Header: header,
		Notes: []string{
			fmt.Sprintf("Pr(N=0) = %.4f (fault-free dies, MSE = 0, excluded from the curves as in Eq. 5's sum from i=1)", r.CDFs[0].PZeroFailures),
			fmt.Sprintf("Monte-Carlo samples per arm: %d (Trun=%.0g; the paper uses 1e7); accumulator: %s",
				r.CDFs[0].Samples, r.Params.CDF.Trun, acc),
		},
	}
	for _, x := range r.Params.MSEGrid {
		row := []string{fmt.Sprintf("%.1e", x)}
		for _, c := range r.CDFs {
			row = append(row, fmt.Sprintf("%.4f", c.CDF.P(x)))
		}
		t.AddRow(row...)
	}
	return t
}

// YieldTable tabulates the MSE each arm must tolerate at the requested
// yield targets, the headline reduction factors, and the quality-aware
// yield at the Section 4 criterion MSE < MSETarget.
func (r Fig5Result) YieldTable() *Table {
	header := []string{"scheme"}
	for _, q := range r.Params.YieldTargets {
		header = append(header, fmt.Sprintf("MSE@yield %.3g", q))
	}
	header = append(header,
		fmt.Sprintf("reduction vs none @%.3g", r.Params.YieldTargets[0]),
		fmt.Sprintf("yield@MSE<%.0e", r.Params.MSETarget))
	t := &Table{
		Title:  "Fig. 5 derived - MSE tolerated at yield targets and quality-aware yield",
		Header: header,
		Notes: []string{
			"Section 4 claims: >=30x MSE reduction at fixed yield even for nFM=1; 99.9999% yield at MSE<1e6 for nFM=1",
		},
	}
	var none yield.CDFResult
	for i, a := range r.Arms {
		if a == ProtNone {
			none = r.CDFs[i]
		}
	}
	for i, a := range r.Arms {
		row := []string{a.String()}
		for _, q := range r.Params.YieldTargets {
			row = append(row, fmt.Sprintf("%.3e", r.CDFs[i].MSEAtYield(q)))
		}
		red := yield.ReductionAtYield(r.CDFs[i], none, r.Params.YieldTargets[0])
		if a == ProtNone {
			row = append(row, "1.0x")
		} else {
			row = append(row, fmt.Sprintf("%.1fx", red))
		}
		row = append(row, fmt.Sprintf("%.6f", r.CDFs[i].YieldAtMSE(r.Params.MSETarget)))
		t.AddRow(row...)
	}
	return t
}
