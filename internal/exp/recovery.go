package exp

import (
	"context"
	"fmt"

	"faultmem/internal/mc"
	"faultmem/internal/memstore"
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

// RecoveryPolicyRun is one policy's sweep over the protection arms.
type RecoveryPolicyRun struct {
	// Policy is the canonical policy name ("none", "retry",
	// "saferestore").
	Policy string
	// Arms holds one sorted quality sample per protection arm, in
	// AllProtections order.
	Arms []Fig7Arm
	// Stats are the per-arm recovery counters summed over every trial
	// (nil for the "none" policy, which takes the plain cached path).
	Stats []memstore.RecoveryStats
}

// RecoveryResult bundles the campaign run.
type RecoveryResult struct {
	Params RecoveryParams
	// Workload/Display/Metric/Clean describe the single workload every
	// policy ran.
	Workload string
	Display  string
	Metric   string
	Clean    float64
	Runs     []RecoveryPolicyRun
}

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

// policyFor builds the concrete policy for one kind from the campaign
// budgets.
func (p RecoveryParams) policyFor(k workload.PolicyKind) workload.RecoveryPolicy {
	return workload.RecoveryPolicy{Kind: k, Retries: p.Retries, SafeWords: p.SafeWords}
}

// Recovery runs the campaign on the parallel engine.
func Recovery(p RecoveryParams) (RecoveryResult, error) {
	return RecoveryEnv(mc.Env{}, p)
}

// RecoveryEnv is Recovery under an execution environment: the selected
// workload is prepared once, then the quality engine runs it through
// all eight protection arms once per policy. Every policy sees the
// identical die and soft-error sequence (common random numbers), so a
// policy can only move a trial's quality through recovery itself.
func RecoveryEnv(env mc.Env, p RecoveryParams) (RecoveryResult, error) {
	kinds, err := p.resolvePolicies()
	if err != nil {
		return RecoveryResult{}, err
	}
	res, inst, err := p.prepare()
	if err != nil {
		return RecoveryResult{}, err
	}
	for _, k := range kinds {
		if err := env.Context().Err(); err != nil {
			return RecoveryResult{}, err
		}
		run, err := p.runPolicy(env, inst, res.Workload, k)
		if err != nil {
			return RecoveryResult{}, err
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// prepare validates the params and builds the workload instance and the
// result shell.
func (p RecoveryParams) prepare() (RecoveryResult, workload.Instance, error) {
	if p.Trials < 1 || p.Rows < 1 || p.Pcell <= 0 || p.Pcell >= 1 {
		return RecoveryResult{}, nil, fmt.Errorf("exp: bad recovery params %+v", p)
	}
	if p.TransientRate < 0 || p.TransientRate >= 1 {
		return RecoveryResult{}, nil, fmt.Errorf("exp: recovery transient rate %g outside [0, 1)", p.TransientRate)
	}
	if p.Retries < 0 || p.SafeWords < 0 {
		return RecoveryResult{}, nil, fmt.Errorf("exp: negative recovery budget (retries %d, safewords %d)", p.Retries, p.SafeWords)
	}
	name := p.Workload
	if name == "" {
		name = "cgsolve"
	}
	id, err := workload.Parse(name)
	if err != nil {
		return RecoveryResult{}, nil, fmt.Errorf("exp: recovery params: %w", err)
	}
	inst, err := workload.PrepareShared(id, workload.Params{
		Seed:             p.Seed,
		MadelonPaperSize: p.MadelonPaperSize,
		Keys:             p.Keys,
		Dim:              p.Dim,
		Iters:            p.Iters,
		Checkpoint:       p.Checkpoint,
		Restarts:         p.Restarts,
	})
	if err != nil {
		return RecoveryResult{}, nil, err
	}
	return RecoveryResult{
		Params:   p,
		Workload: id.String(),
		Display:  id.Display(),
		Metric:   inst.Metric(),
		Clean:    inst.Clean(),
	}, inst, nil
}

// runPolicy runs the quality engine for one policy over all arms.
func (p RecoveryParams) runPolicy(env mc.Env, inst workload.Instance, name string, k workload.PolicyKind) (RecoveryPolicyRun, error) {
	arms, stats, err := runQualityArms(env, inst, qualityConfig{
		name:      name,
		arms:      AllProtections(),
		rows:      p.Rows,
		pcell:     p.Pcell,
		trials:    p.Trials,
		workers:   p.Workers,
		seed:      p.Seed,
		policy:    p.policyFor(k),
		transient: p.TransientRate,
	})
	if err != nil {
		return RecoveryPolicyRun{}, err
	}
	return RecoveryPolicyRun{Policy: k.String(), Arms: arms, Stats: stats}, nil
}

// MeanQualityTable tabulates mean quality per arm (rows) and policy
// (columns) — the campaign's headline arms x policies grid.
func (r RecoveryResult) MeanQualityTable() *Table {
	header := []string{"scheme"}
	for _, run := range r.Runs {
		header = append(header, run.Policy)
	}
	t := &Table{
		Title: fmt.Sprintf("Recovery - %s mean quality by arm and policy (%dKB, Pcell=%.0e, transient=%.0e)",
			r.Display, r.Params.Rows*4/1024, r.Params.Pcell, r.Params.TransientRate),
		Header: header,
		Notes: []string{
			fmt.Sprintf("fault-free %s = %.4g (quality 1.0); %d paired Monte-Carlo trials per policy",
				r.Metric, r.Clean, r.Params.Trials),
			fmt.Sprintf("retry budget %d re-reads/word; saferestore budget %s safe words/trial",
				r.Params.Retries, safeWordsLabel(r.Params.SafeWords)),
		},
	}
	for ai, arm := range AllProtections() {
		row := []string{arm.String()}
		for _, run := range r.Runs {
			row = append(row, fmt.Sprintf("%.4f", run.Arms[ai].Mean()))
		}
		t.AddRow(row...)
	}
	return t
}

// YieldTable tabulates the quality each arm delivers at a fixed 90%
// yield under every policy — the paper's quality-vs-yield lens on the
// same grid.
func (r RecoveryResult) YieldTable() *Table {
	header := []string{"scheme"}
	for _, run := range r.Runs {
		header = append(header, run.Policy)
	}
	t := &Table{
		Title:  fmt.Sprintf("Recovery - %s quality at 90%% yield by arm and policy", r.Display),
		Header: header,
	}
	for ai, arm := range AllProtections() {
		row := []string{arm.String()}
		for _, run := range r.Runs {
			row = append(row, fmt.Sprintf("%.4f", run.Arms[ai].QualityAtYield(0.90)))
		}
		t.AddRow(row...)
	}
	return t
}

// StatsTable tabulates one policy's per-arm recovery counters summed
// over the campaign (nil for the "none" policy).
func (r RecoveryResult) StatsTable(run RecoveryPolicyRun) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Recovery counters - policy %s (%d trials)", run.Policy, r.Params.Trials),
		Header: []string{"scheme", "flagged", "retries", "recovered", "restored", "budget denied"},
	}
	for ai, arm := range AllProtections() {
		s := run.Stats[ai]
		t.AddRow(arm.String(),
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

// recoveryExperiment adapts the campaign to the registry.
type recoveryExperiment struct{}

func (recoveryExperiment) Name() string { return "recovery" }
func (recoveryExperiment) Description() string {
	return "detect-and-recover policy comparison: quality-vs-yield per arm under retry and safe-restore"
}
func (recoveryExperiment) DefaultParams() any { return DefaultRecoveryParams() }

func (e recoveryExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[RecoveryParams](r, e)
	if err != nil {
		return nil, err
	}
	p.Seed = r.seedOr(p.Seed)
	p.Workers = r.workersOr(p.Workers)
	if r.quick() && p.Trials > QuickRecoveryTrials {
		p.Trials = QuickRecoveryTrials
	}
	kinds, err := p.resolvePolicies()
	if err != nil {
		return nil, err
	}
	out, inst, err := p.prepare()
	if err != nil {
		return nil, err
	}
	res := &Result{Experiment: e.Name(), Params: p}
	for i, k := range kinds {
		stage := k.String()
		if r.skips(e.Name(), stage) {
			continue
		}
		run, err := p.runPolicy(r.env(ctx, e.Name(), stage), inst, out.Workload, k)
		if err != nil {
			return nil, err
		}
		out.Runs = append(out.Runs, run)
		if run.Stats != nil {
			res.Tables = append(res.Tables, out.StatsTable(run))
		}
		r.note(e.Name(), "policies", i+1, len(kinds))
	}
	// The headline grids come first; the per-policy counter tables were
	// appended as each policy finished.
	res.Tables = append([]*Table{out.MeanQualityTable(), out.YieldTable()}, res.Tables...)
	return res, nil
}
