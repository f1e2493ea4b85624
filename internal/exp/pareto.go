package exp

import (
	"context"
	"fmt"

	"faultmem/internal/core"
	"faultmem/internal/ecc"
	"faultmem/internal/hw"
	"faultmem/internal/mc"
	"faultmem/internal/yield"
)

// ParetoParams configures the quality-vs-overhead frontier exhibit: the
// §3 claim that "by modifying the number of bits that comprise a shifted
// segment, the designer can trade-off quality for power, delay, and
// area", extended with a P-ECC protected-fraction sweep so both knobs
// are visible in one table.
type ParetoParams struct {
	CDF yield.CDFParams
	// YieldTarget is the CDF level at which the tolerated MSE is read.
	YieldTarget float64
	// PECCSplits are the protected-MSB counts of the P-ECC arms.
	PECCSplits []int
}

// DefaultParetoParams uses the Fig. 5 memory configuration.
func DefaultParetoParams() ParetoParams {
	cdf := yield.DefaultCDFParams()
	cdf.Trun = 5e4
	return ParetoParams{CDF: cdf, YieldTarget: 0.99, PECCSplits: []int{8, 16, 24}}
}

// ParetoRow is one scheme's position in the quality/cost space.
type ParetoRow struct {
	Name       string
	MSEAtYield float64 // tolerated MSE at the yield target (lower = better)
	RelPower   float64 // read power overhead / H(39,32) overhead
	RelDelay   float64
	RelArea    float64
}

// ParetoEnv evaluates every arm's quality (Fig. 5 machinery) and
// hardware cost (Fig. 6 machinery) on a common scale: bit-identical rows
// when the context stays live, ctx.Err() when cancelled mid-campaign.
func ParetoEnv(env mc.Env, p ParetoParams) ([]ParetoRow, error) {
	// The hardware model is sized from the same rows, so bad CDF params
	// must be refused before it panics on them.
	if err := p.CDF.Validate(); err != nil {
		return nil, err
	}
	lib := hw.Lib28nm()
	macro := hw.Macro28nm(p.CDF.Rows)
	eccOv := hw.ECCOverhead(lib, macro, ecc.H39_32())
	rel := func(o hw.Overhead) (float64, float64, float64) {
		return o.ReadEnergy / eccOv.ReadEnergy,
			o.ReadDelay / eccOv.ReadDelay,
			o.Area / eccOv.Area
	}

	type arm struct {
		scheme yield.Scheme
		oh     hw.Overhead
	}
	var arms []arm
	arms = append(arms, arm{yield.Unprotected{}, hw.Overhead{Name: "No Correction"}})
	for nfm := 1; nfm <= 5; nfm++ {
		arms = append(arms, arm{
			yield.NewShuffled(nfm),
			hw.ShuffleOverhead(lib, macro, core.Config{Width: 32, NFM: nfm}),
		})
	}
	for _, split := range p.PECCSplits {
		arms = append(arms, arm{
			yield.PriorityECC{Protected: split},
			hw.PartialECCOverhead(lib, macro, split),
		})
	}
	arms = append(arms, arm{yield.FullECC{}, eccOv})

	// One engine pass with common random numbers across every arm: the
	// frontier's quality axis is read off identical fault-map samples, so
	// the monotonicity the table claims (in nFM and in the P-ECC split)
	// cannot be scrambled by between-arm Monte-Carlo noise.
	schemes := make([]yield.Scheme, len(arms))
	for i, a := range arms {
		schemes[i] = a.scheme
	}
	results, err := yield.MSECDFAllEnv(env, p.CDF, schemes)
	if err != nil {
		return nil, err
	}

	rows := make([]ParetoRow, 0, len(arms))
	for i, a := range arms {
		pw, dl, ar := rel(a.oh)
		rows = append(rows, ParetoRow{
			Name:       a.scheme.Name(),
			MSEAtYield: results[i].MSEAtYield(p.YieldTarget),
			RelPower:   pw,
			RelDelay:   dl,
			RelArea:    ar,
		})
	}
	return rows, nil
}

// paretoExperiment adapts the quality/overhead frontier to the registry.
type paretoExperiment struct{}

func (paretoExperiment) Name() string { return "pareto" }
func (paretoExperiment) Description() string {
	return "quality vs hardware-cost frontier across both design knobs"
}
func (paretoExperiment) DefaultParams() any { return DefaultParetoParams() }

func (e paretoExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[ParetoParams](r, e)
	if err != nil {
		return nil, err
	}
	p.CDF.Seed = r.seedOr(p.CDF.Seed)
	p.CDF.Workers = r.workersOr(p.CDF.Workers)
	p.CDF.Accum = r.accumOr(p.CDF.Accum)
	p.CDF.Bins = r.binsOr(p.CDF.Bins)
	if r.quick() && p.CDF.Trun > 1e4 {
		p.CDF.Trun = 1e4
	}
	rows, err := ParetoEnv(r.env(ctx, e.Name(), ""), p)
	if err != nil {
		return nil, err
	}
	return &Result{Experiment: e.Name(), Params: p, Tables: []*Table{ParetoTable(rows, p)}}, nil
}

// ParetoTable renders the frontier.
func ParetoTable(rows []ParetoRow, p ParetoParams) *Table {
	t := &Table{
		Title: fmt.Sprintf("Quality-overhead trade-off: MSE tolerated at %.2f yield vs relative hardware cost",
			p.YieldTarget),
		Header: []string{"scheme", fmt.Sprintf("MSE@yield %.2f", p.YieldTarget),
			"rel power", "rel delay", "rel area"},
		Notes: []string{
			"both knobs of the design space in one table: the shuffling segment size (nFM) and",
			"the P-ECC protected fraction; relative costs are normalized to H(39,32) SECDED",
			"Section 3's claim quantified: nFM trades quality for power/delay/area smoothly;",
			"nFM=2 matches P-ECC top-24's quality bound (both cap single faults at 2^7) at a",
			"third of its power/delay/area, and strictly dominates the top-8/top-16 splits",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.3e", r.MSEAtYield),
			fmt.Sprintf("%.3f", r.RelPower),
			fmt.Sprintf("%.3f", r.RelDelay),
			fmt.Sprintf("%.3f", r.RelArea))
	}
	return t
}
