package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"faultmem/internal/mc"
	"faultmem/internal/memstore"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
)

// The quality campaigns — fig7, workloads and recovery — are presets of
// one engine: a workload's data sits in one faulty memory macro, and
// every trial pushes it through a set of protection arms on one die
// (common random numbers), scoring each arm's normalized quality. A
// preset plans its params into a list of qualityStages, Runner.runQuality
// runs them, and the preset renders the resulting qualityRuns with the
// shared CDF/summary tables (plus recovery's policy grids).

// qualityStage fixes one engine run of a quality campaign: a prepared
// workload pushed through a set of protection arms at a fixed memory
// geometry and trial budget, optionally under a detect-and-recover
// policy and a per-read transient fault rate. Each stage is its own
// engine run over its own params and seed, so stages can be skipped
// independently (Runner.skips).
type qualityStage struct {
	name      string // the stage's name within its campaign (its tag suffix)
	id        workload.ID
	wp        workload.Params
	arms      []Protection
	rows      int
	pcell     float64
	trials    int
	workers   int
	seed      int64
	policy    workload.RecoveryPolicy
	transient float64
}

// check rejects a stage the engine cannot run: an empty macro or
// Pcell = 0 would spin the trial runner's conditioned (at least one
// failure) draw forever, Pcell >= 1 leaves no working cell, and an
// empty sample has no quantiles.
func (s qualityStage) check(experiment string) error {
	if s.rows < 1 || !(s.pcell > 0 && s.pcell < 1) || s.trials < 1 {
		return fmt.Errorf("exp: %s params: Rows = %d, Pcell = %g, Trials = %d; want Rows >= 1, 0 < Pcell < 1, Trials >= 1",
			experiment, s.rows, s.pcell, s.trials)
	}
	return nil
}

// qualityRun is one computed stage: the instance's metric and
// fault-free value, one sorted quality sample per arm (in the stage's
// arm order), and the per-arm recovery counters (nil when the stage's
// policy is none).
type qualityRun struct {
	stage    qualityStage
	metric   string
	clean    float64
	arms     []QualityArm
	recovery []memstore.RecoveryStats
}

// runQuality is the stage loop of every quality campaign. It checks
// every stage before running any, then prepares each stage's instance
// (workload.PrepareShared) and runs it on the engine under the stage's
// tag, emitting one progress event of the named unit per finished
// stage. A stage-only run (RunStage) computes the one stage its tag
// names and fails when the tag names none.
func (r *Runner) runQuality(ctx context.Context, experiment, unit string, stages []qualityStage) ([]qualityRun, error) {
	for _, s := range stages {
		if err := s.check(experiment); err != nil {
			return nil, err
		}
	}
	var runs []qualityRun
	for i, s := range stages {
		if r.skips(experiment, s.name) {
			continue
		}
		// Preparation is the expensive serial part of a stage; a dead
		// context must not pay for it.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		inst, err := workload.PrepareShared(s.id, s.wp)
		if err != nil {
			return nil, err
		}
		arms, recovery, err := runQualityArms(r.env(ctx, experiment, s.name), inst, s)
		if err != nil {
			return nil, err
		}
		runs = append(runs, qualityRun{stage: s, metric: inst.Metric(), clean: inst.Clean(), arms: arms, recovery: recovery})
		r.note(experiment, unit, i+1, len(stages))
	}
	if r != nil && r.stage != "" && len(runs) == 0 {
		return nil, fmt.Errorf("exp: tag %q names no stage of %s", r.stage, experiment)
	}
	return runs, nil
}

// workloadArms adapts protection arms to the workload layer's Arm
// interface (Protection satisfies it structurally; the indirection
// avoids an import cycle).
func workloadArms(arms []Protection) []workload.Arm {
	out := make([]workload.Arm, len(arms))
	for i, a := range arms {
		out[i] = a
	}
	return out
}

// runQualityArms is the Monte-Carlo engine of one stage: it splits the
// trial budget into contiguous spans, runs each span's trials on a
// per-shard workload.TrialRunner (one RNG stream per trial derived from
// (seed, trial), so the samples are bit-identical at any worker or
// shard count), and returns one ascending-sorted quality sample per arm
// plus the per-arm recovery counters merged across shards (nil when the
// policy is None — merging is order-free field sums, so the counters
// are worker-count deterministic too).
//
// Each trial draws its die's fault map once and pushes the workload's
// data through every arm's memory (common random numbers), so the arms
// are compared on identical dies and fault generation is paid once per
// trial. Trials sharing a shard reuse one workload.Workspace, so a warm
// trial allocates almost nothing. Cancellation is polled between trials
// inside each shard, so even a one-shard run returns promptly.
func runQualityArms(env mc.Env, inst workload.Instance, s qualityStage) ([]QualityArm, []memstore.RecoveryStats, error) {
	narms := len(s.arms)
	rcfg := workload.Config{
		Name:          s.id.String(),
		Rows:          s.rows,
		Pcell:         s.pcell,
		Arms:          workloadArms(s.arms),
		Policy:        s.policy,
		TransientRate: s.transient,
	}
	seedBase := stats.DeriveSeed(s.seed, 1000)
	spans := mc.Split(s.trials, mc.Workers(s.workers))
	cancel := env.Done()

	outs, err := mc.RunEnv(env, s.workers, len(spans), seedBase,
		func(shard int, _ *rand.Rand) workload.ShardOut {
			span := spans[shard]
			out := workload.ShardOut{Qs: make([]float64, 0, (span.End-span.Start)*narms)}
			runner := workload.NewTrialRunner(inst, rcfg)
			for trial := span.Start; trial < span.End; trial++ {
				select {
				case <-cancel:
					// Abandon the shard; the engine reports ctx.Err() and
					// the partial samples are discarded with it.
					return out
				default:
				}
				qs, err := runner.RunTrial(seedBase, trial, out.Qs)
				out.Qs = qs
				if err != nil {
					out.Err = err.Error()
					return out
				}
			}
			out.Recovery = runner.RecoveryStats()
			return out
		})
	if err != nil {
		return nil, nil, err
	}

	for _, o := range outs {
		if o.Err != "" {
			return nil, nil, errors.New(o.Err)
		}
	}
	var recovery []memstore.RecoveryStats
	if s.policy.Active() {
		recovery = make([]memstore.RecoveryStats, narms)
		for _, o := range outs {
			for ai, st := range o.Recovery {
				recovery[ai].Merge(st)
			}
		}
	}
	res := make([]QualityArm, 0, narms)
	for ai, arm := range s.arms {
		qualities := make([]float64, 0, s.trials)
		for _, o := range outs {
			for t := 0; t*narms < len(o.Qs); t++ {
				qualities = append(qualities, o.Qs[t*narms+ai])
			}
		}
		sort.Float64s(qualities)
		res = append(res, QualityArm{Scheme: arm, Qualities: qualities})
	}
	return res, recovery, nil
}

// QualityArm is one protection scheme's quality sample in a quality
// campaign stage.
type QualityArm struct {
	Scheme    Protection
	Qualities []float64 // normalized to the fault-free metric, sorted ascending
}

// CDFAt returns the empirical Pr(quality <= q): an upper-bound binary
// search for the first quality above q, so duplicate-heavy samples (many
// trials at quality 1.0) cost O(log n) instead of a linear walk. An
// empty arm has no mass anywhere, so CDFAt returns 0 (not NaN).
func (a QualityArm) CDFAt(q float64) float64 {
	if len(a.Qualities) == 0 {
		return 0
	}
	i := sort.Search(len(a.Qualities), func(i int) bool { return a.Qualities[i] > q })
	return float64(i) / float64(len(a.Qualities))
}

// QualityAtYield returns the quality floor guaranteed with probability
// 1-level: the level-quantile of the quality sample — the smallest
// sample q with Pr(quality <= q) >= level, i.e. index ceil(level*n)-1,
// the same empirical-quantile convention (and relative tolerance) as
// stats.WeightedCDF.Quantile. It panics on an empty arm.
func (a QualityArm) QualityAtYield(level float64) float64 {
	n := len(a.Qualities)
	if n == 0 {
		panic("exp: empty arm")
	}
	nf := float64(n)
	idx := int(math.Ceil(level*nf-1e-12*nf)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return a.Qualities[idx]
}

// Mean returns the average normalized quality.
func (a QualityArm) Mean() float64 { return stats.Mean(a.Qualities) }

// qualityCDFTable tabulates a run's per-arm quality CDF over a fixed
// 0.05 grid. eccRef appends the H(39,32) ECC reference column, which
// holds all its mass at quality 1.0 (fig7's §5.2 convention).
func qualityCDFTable(run qualityRun, title string, notes []string, eccRef bool) *Table {
	header := []string{"normalized " + run.metric}
	for _, a := range run.arms {
		header = append(header, a.Scheme.String())
	}
	if eccRef {
		header = append(header, "H(39,32) ECC")
	}
	t := &Table{Title: title, Header: header, Notes: notes}
	for q := 0.0; q <= 1.0001; q += 0.05 {
		row := []string{fmt.Sprintf("%.2f", q)}
		for _, a := range run.arms {
			row = append(row, fmt.Sprintf("%.3f", a.CDFAt(q)))
		}
		if eccRef {
			ecc := "0.000"
			if q >= 1 {
				ecc = "1.000"
			}
			row = append(row, ecc)
		}
		t.AddRow(row...)
	}
	return t
}

// qualitySummaryTable reports a run's mean quality and low quantiles per
// arm; eccRef appends the error-free H(39,32) ECC reference row.
func qualitySummaryTable(run qualityRun, title string, eccRef bool) *Table {
	t := &Table{Title: title, Header: []string{"scheme", "mean quality", "q10", "q50", "min"}}
	for _, a := range run.arms {
		t.AddRow(a.Scheme.String(),
			fmt.Sprintf("%.4f", a.Mean()),
			fmt.Sprintf("%.4f", a.QualityAtYield(0.10)),
			fmt.Sprintf("%.4f", a.QualityAtYield(0.50)),
			fmt.Sprintf("%.4f", a.Qualities[0]))
	}
	if eccRef {
		t.AddRow("H(39,32) ECC", "1.0000", "1.0000", "1.0000", "1.0000")
	}
	return t
}
