package exp

import (
	"context"
	"fmt"

	"faultmem/internal/workload"
)

// WorkloadsParams configures the workloads campaign: fig7-style
// quality-vs-yield CDFs for any subset of the workload registry, run
// through all eight protection arms.
type WorkloadsParams struct {
	// Workloads are the canonical workload names to run, in order
	// (workload.Names()). Empty means every registered workload.
	Workloads []string
	// Rows is the memory macro depth (4096 = 16 KB).
	Rows int
	// Pcell is the bit-cell failure probability.
	Pcell float64
	// Trials is the Monte-Carlo budget per workload (each trial runs all
	// eight arms on one die).
	Trials int
	// Seed drives problem generation and fault maps; the same seed gives
	// every workload the same die sequence (common random numbers).
	Seed int64
	// Keys is the resilient-sort key count (0 = the workload default).
	Keys int
	// Dim is the CG system dimension (0 = the workload default).
	Dim int
	// Iters is the CG iteration budget (0 = Dim).
	Iters int
	// MadelonPaperSize switches the PCA workload to the full 500-feature
	// geometry.
	MadelonPaperSize bool
	// Workers is the goroutine count (0 = GOMAXPROCS); results are
	// identical for every worker count.
	Workers int
}

// DefaultWorkloadsParams returns the campaign defaults: every
// registered workload at the fig7 memory geometry, with a 200-trial
// budget (the 8-arm sweep costs 2x a 4-arm fig7 trial).
func DefaultWorkloadsParams() WorkloadsParams {
	return WorkloadsParams{
		Workloads: workload.Names(),
		Rows:      4096,
		Pcell:     1e-3,
		Trials:    200,
		Seed:      7,
	}
}

// QuickWorkloadsTrials is the reduced -quick budget for CI smokes.
const QuickWorkloadsTrials = 8

// resolveWorkloads maps the params' name subset to IDs (all registered
// workloads when empty), rejecting unknown names and duplicates.
func (p WorkloadsParams) resolveWorkloads() ([]workload.ID, error) {
	if len(p.Workloads) == 0 {
		return workload.All(), nil
	}
	ids := make([]workload.ID, 0, len(p.Workloads))
	seen := map[workload.ID]bool{}
	for _, name := range p.Workloads {
		id, err := workload.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("exp: workloads params: %w", err)
		}
		if seen[id] {
			return nil, fmt.Errorf("exp: workloads params: duplicate workload %q", name)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	return ids, nil
}

// workloadsExperiment adapts the campaign to the registry.
type workloadsExperiment struct{}

func (workloadsExperiment) Name() string { return "workloads" }
func (workloadsExperiment) Description() string {
	return "quality-vs-yield CDFs for the resilient-workload family, all 8 arms"
}
func (workloadsExperiment) DefaultParams() any { return DefaultWorkloadsParams() }

// plan resolves the effective params and one quality stage per selected
// workload, each through all eight protection arms. The same (seed,
// trial) stream drives every workload's dies, so the per-workload CDFs
// are compared on common random numbers.
func (e workloadsExperiment) plan(r *Runner) (WorkloadsParams, []qualityStage, error) {
	p, err := runnerParams[WorkloadsParams](r, e)
	if err != nil {
		return p, nil, err
	}
	p.Seed = r.seedOr(p.Seed)
	p.Workers = r.workersOr(p.Workers)
	if r.quick() && p.Trials > QuickWorkloadsTrials {
		p.Trials = QuickWorkloadsTrials
	}
	ids, err := p.resolveWorkloads()
	if err != nil {
		return p, nil, err
	}
	wp := workload.Params{Seed: p.Seed, MadelonPaperSize: p.MadelonPaperSize, Keys: p.Keys, Dim: p.Dim, Iters: p.Iters}
	stages := make([]qualityStage, len(ids))
	for i, id := range ids {
		stages[i] = qualityStage{
			name:    id.String(),
			id:      id,
			wp:      wp,
			arms:    AllProtections(),
			rows:    p.Rows,
			pcell:   p.Pcell,
			trials:  p.Trials,
			workers: p.Workers,
			seed:    p.Seed,
		}
	}
	return p, stages, nil
}

func (e workloadsExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, stages, err := e.plan(r)
	if err != nil {
		return nil, err
	}
	runs, err := r.runQuality(ctx, e.Name(), "workloads", stages)
	if err != nil {
		return nil, err
	}
	res := &Result{Experiment: e.Name(), Params: p}
	for _, run := range runs {
		display := run.stage.id.Display()
		cdf := qualityCDFTable(run,
			fmt.Sprintf("Workload %s - CDF of quality under memory failures (16KB, Pcell=%.0e)", display, p.Pcell),
			[]string{fmt.Sprintf("fault-free %s = %.4g (quality 1.0); %d Monte-Carlo trials per arm",
				run.metric, run.clean, p.Trials)}, false)
		sum := qualitySummaryTable(run, fmt.Sprintf("Workload summary - %s (%s)", display, run.metric), false)
		res.Tables = append(res.Tables, cdf, sum)
	}
	return res, nil
}
