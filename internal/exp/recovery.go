package exp

import (
	"context"
	"fmt"

	"faultmem/internal/workload"
)

// RecoveryParams configures the detect-and-recover campaign: one
// workload run through all eight protection arms once per recovery
// policy, on common random numbers — the same (seed, trial) stream
// drives every policy's dies and soft errors, so quality deltas between
// policies are paired, not sampled.
type RecoveryParams struct {
	// Workload is the canonical workload name (default "cgsolve").
	Workload string
	// Policies are the recovery policies to compare, in order
	// (workload.PolicyNames()). Empty means all three.
	Policies []string
	// Rows is the memory macro depth (4096 = 16 KB).
	Rows int
	// Pcell is the bit-cell failure probability.
	Pcell float64
	// Trials is the Monte-Carlo budget per policy (each trial runs all
	// eight arms on one die).
	Trials int
	// Seed drives problem generation, fault maps, and soft errors.
	Seed int64
	// Retries is the bounded re-read budget per flagged word (0 = 2).
	Retries int
	// SafeWords is the saferestore per-trial safe-word budget
	// (0 = unlimited).
	SafeWords int
	// TransientRate is the per-read per-bit soft-error rate (0 disables;
	// the default campaign uses 1e-4 so bounded re-reads have transient
	// corruption to recover).
	TransientRate float64
	// Keys, Dim, Iters, Checkpoint, Restarts forward to the workload
	// (0 = the workload default).
	Keys       int
	Dim        int
	Iters      int
	Checkpoint int
	Restarts   int
	// MadelonPaperSize switches the PCA workload to the full 500-feature
	// geometry.
	MadelonPaperSize bool
	// Workers is the goroutine count (0 = GOMAXPROCS); results are
	// identical for every worker count.
	Workers int
}

// DefaultRecoveryParams returns the campaign defaults: the CG solve at
// the fig7 memory geometry with soft errors enabled, comparing all
// three policies with a 2-retry budget and a 256-word restore budget.
func DefaultRecoveryParams() RecoveryParams {
	return RecoveryParams{
		Workload:      "cgsolve",
		Policies:      workload.PolicyNames(),
		Rows:          4096,
		Pcell:         1e-3,
		Trials:        200,
		Seed:          7,
		Retries:       2,
		SafeWords:     256,
		TransientRate: 1e-4,
	}
}

// QuickRecoveryTrials is the reduced -quick budget for CI smokes.
const QuickRecoveryTrials = 8

// resolvePolicies maps the params' policy-name subset to kinds (all
// three when empty), rejecting unknown names and duplicates.
func (p RecoveryParams) resolvePolicies() ([]workload.PolicyKind, error) {
	if len(p.Policies) == 0 {
		return workload.AllPolicies(), nil
	}
	kinds := make([]workload.PolicyKind, 0, len(p.Policies))
	seen := map[workload.PolicyKind]bool{}
	for _, name := range p.Policies {
		k, err := workload.ParsePolicy(name)
		if err != nil {
			return nil, fmt.Errorf("exp: recovery params: %w", err)
		}
		if seen[k] {
			return nil, fmt.Errorf("exp: recovery params: duplicate policy %q", name)
		}
		seen[k] = true
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// recoveryExperiment adapts the campaign to the registry.
type recoveryExperiment struct{}

func (recoveryExperiment) Name() string { return "recovery" }
func (recoveryExperiment) Description() string {
	return "detect-and-recover policy comparison: quality-vs-yield per arm under retry and safe-restore"
}
func (recoveryExperiment) DefaultParams() any { return DefaultRecoveryParams() }

// plan resolves the effective params and one quality stage per policy:
// the one workload through all eight protection arms. Every stage sees
// the identical die and soft-error sequence (common random numbers), so
// a policy can only move a trial's quality through recovery itself.
func (e recoveryExperiment) plan(r *Runner) (RecoveryParams, []qualityStage, error) {
	p, err := runnerParams[RecoveryParams](r, e)
	if err != nil {
		return p, nil, err
	}
	p.Seed = r.seedOr(p.Seed)
	p.Workers = r.workersOr(p.Workers)
	if r.quick() && p.Trials > QuickRecoveryTrials {
		p.Trials = QuickRecoveryTrials
	}
	if !(p.TransientRate >= 0 && p.TransientRate < 1) {
		return p, nil, fmt.Errorf("exp: recovery transient rate %g outside [0, 1)", p.TransientRate)
	}
	if p.Retries < 0 || p.SafeWords < 0 {
		return p, nil, fmt.Errorf("exp: negative recovery budget (retries %d, safewords %d)", p.Retries, p.SafeWords)
	}
	kinds, err := p.resolvePolicies()
	if err != nil {
		return p, nil, err
	}
	name := p.Workload
	if name == "" {
		name = "cgsolve"
	}
	id, err := workload.Parse(name)
	if err != nil {
		return p, nil, fmt.Errorf("exp: recovery params: %w", err)
	}
	wp := workload.Params{
		Seed:             p.Seed,
		MadelonPaperSize: p.MadelonPaperSize,
		Keys:             p.Keys,
		Dim:              p.Dim,
		Iters:            p.Iters,
		Checkpoint:       p.Checkpoint,
		Restarts:         p.Restarts,
	}
	stages := make([]qualityStage, len(kinds))
	for i, k := range kinds {
		stages[i] = qualityStage{
			name:      k.String(),
			id:        id,
			wp:        wp,
			arms:      AllProtections(),
			rows:      p.Rows,
			pcell:     p.Pcell,
			trials:    p.Trials,
			workers:   p.Workers,
			seed:      p.Seed,
			policy:    workload.RecoveryPolicy{Kind: k, Retries: p.Retries, SafeWords: p.SafeWords},
			transient: p.TransientRate,
		}
	}
	return p, stages, nil
}

func (e recoveryExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, stages, err := e.plan(r)
	if err != nil {
		return nil, err
	}
	runs, err := r.runQuality(ctx, e.Name(), "policies", stages)
	if err != nil {
		return nil, err
	}
	head := runs[0]
	display := head.stage.id.Display()
	res := &Result{Experiment: e.Name(), Params: p, Tables: []*Table{
		policyGrid(runs,
			fmt.Sprintf("Recovery - %s mean quality by arm and policy (%dKB, Pcell=%.0e, transient=%.0e)",
				display, p.Rows*4/1024, p.Pcell, p.TransientRate),
			[]string{
				fmt.Sprintf("fault-free %s = %.4g (quality 1.0); %d paired Monte-Carlo trials per policy",
					head.metric, head.clean, p.Trials),
				fmt.Sprintf("retry budget %d re-reads/word; saferestore budget %s safe words/trial",
					p.Retries, safeWordsLabel(p.SafeWords)),
			},
			QualityArm.Mean),
		policyGrid(runs, fmt.Sprintf("Recovery - %s quality at 90%% yield by arm and policy", display), nil,
			func(a QualityArm) float64 { return a.QualityAtYield(0.90) }),
	}}
	for _, run := range runs {
		if run.recovery != nil {
			res.Tables = append(res.Tables, recoveryStatsTable(run))
		}
	}
	return res, nil
}

// policyGrid tabulates one statistic of each arm's quality sample (rows)
// under every policy (columns): the campaign's arms x policies grids.
func policyGrid(runs []qualityRun, title string, notes []string, stat func(QualityArm) float64) *Table {
	header := []string{"scheme"}
	for _, run := range runs {
		header = append(header, run.stage.name)
	}
	t := &Table{Title: title, Header: header, Notes: notes}
	for ai, arm := range runs[0].arms {
		row := []string{arm.Scheme.String()}
		for _, run := range runs {
			row = append(row, fmt.Sprintf("%.4f", stat(run.arms[ai])))
		}
		t.AddRow(row...)
	}
	return t
}

// recoveryStatsTable tabulates one policy's per-arm recovery counters
// summed over the campaign.
func recoveryStatsTable(run qualityRun) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Recovery counters - policy %s (%d trials)", run.stage.name, run.stage.trials),
		Header: []string{"scheme", "flagged", "retries", "recovered", "restored", "budget denied"},
	}
	for ai, a := range run.arms {
		s := run.recovery[ai]
		t.AddRow(a.Scheme.String(),
			fmt.Sprintf("%d", s.Flagged),
			fmt.Sprintf("%d", s.Retries),
			fmt.Sprintf("%d", s.Recovered),
			fmt.Sprintf("%d", s.Restored),
			fmt.Sprintf("%d", s.BudgetDenied))
	}
	return t
}

func safeWordsLabel(n int) string {
	if n == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d", n)
}
