package exp

import (
	"context"
	"encoding/json"
	"io"

	"faultmem/internal/mc"
	"faultmem/internal/yield"
)

// Progress is one experiment progress event: Done of Total units of the
// named stage have completed. For engine-backed experiments a unit is one
// Monte-Carlo shard; sweep-style experiments count their outer points
// (voltage steps, benchmark apps) instead.
type Progress struct {
	Experiment string `json:"experiment"`
	// Stage distinguishes phases inside one experiment (a Fig. 7
	// benchmark app, an energy-study voltage point); empty for
	// single-phase experiments.
	Stage string `json:"stage,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// ProgressFunc receives progress events. Calls are serialized per engine
// run but may come from worker goroutines; keep the callback cheap.
type ProgressFunc func(Progress)

// Runner carries the shared execution environment of an experiment run:
// engine parallelism, seed and accumulator policy, the quick-budget tier,
// a progress sink, and an optional parameter override. A nil *Runner is
// valid and means "experiment defaults".
type Runner struct {
	// Workers is the Monte-Carlo worker goroutine count (0 keeps the
	// experiment default, which is all cores). Results are bit-identical
	// for every value.
	Workers int
	// Seed overrides the experiment's default base seed when non-nil.
	Seed *int64
	// Accum selects the CDF accumulator for experiments that build CDFs
	// (AccumAuto keeps each experiment's default policy).
	Accum yield.AccumMode
	// Bins is the log-histogram bin count (0 = default).
	Bins int
	// Quick selects each experiment's reduced smoke budget — the CLI's
	// -quick tier.
	Quick bool
	// Progress, when non-nil, receives shard/stage completion events.
	Progress ProgressFunc
	// Params overrides the experiment's DefaultParams. It accepts either
	// the experiment's concrete params type or a json.RawMessage that is
	// unmarshalled over the defaults — the wire form remote sweep
	// services use.
	Params any
	// Exec, when non-nil, takes over engine shard execution (mc.Env.Exec):
	// the hook the multi-host sweep service uses, on the coordinator to
	// fan shards out to remote workers and on a worker to compute exactly
	// one requested shard of a replayed campaign. Leave nil for ordinary
	// local runs.
	Exec mc.ExecFunc

	// stage, when non-empty, is the tag of the one engine run a
	// stage-only run (RunStage) computes; see skips.
	stage string
}

// workersOr returns the runner's worker count, falling back to the
// experiment's own default.
func (r *Runner) workersOr(def int) int {
	if r == nil || r.Workers == 0 {
		return def
	}
	return r.Workers
}

// seedOr returns the runner's seed override, falling back to the
// experiment's own default.
func (r *Runner) seedOr(def int64) int64 {
	if r == nil || r.Seed == nil {
		return def
	}
	return *r.Seed
}

// accumOr returns the runner's accumulator mode, falling back to the
// experiment's own default.
func (r *Runner) accumOr(def yield.AccumMode) yield.AccumMode {
	if r == nil || r.Accum == yield.AccumAuto {
		return def
	}
	return r.Accum
}

// binsOr returns the runner's histogram bin count, falling back to the
// experiment's own default.
func (r *Runner) binsOr(def int) int {
	if r == nil || r.Bins == 0 {
		return def
	}
	return r.Bins
}

// quick reports whether the reduced smoke budgets are selected.
func (r *Runner) quick() bool { return r != nil && r.Quick }

// stageTag names one engine run of a campaign: "experiment" for a
// single-stage experiment, "experiment/stage" otherwise.
func stageTag(experiment, stage string) string {
	if stage == "" {
		return experiment
	}
	return experiment + "/" + stage
}

// skips reports whether a stage-only run (RunStage) leaves the named
// stage out. The multi-stage experiments' one stage loop (runQuality)
// calls it per stage and skips the stage, preparation included, when it
// answers true.
// That is sound because each stage is its own engine run over its own
// params and seed and no stage reads another stage's results: skipping
// stages 0..k-1 cannot change a bit of stage k. An experiment that
// breaks this contract must not call skips; a sweep worker then sees
// the other stages' engine runs and fails the job, and the coordinator
// computes that tag locally.
func (r *Runner) skips(experiment, stage string) bool {
	return r != nil && r.stage != "" && r.stage != stageTag(experiment, stage)
}

// env builds the engine environment for one stage of the named
// experiment: the caller's context, a shard-completion bridge into the
// runner's progress sink, and — for remote execution — the runner's shard
// executor under a tag that names this engine run uniquely within the
// campaign (stageTag).
func (r *Runner) env(ctx context.Context, experiment, stage string) mc.Env {
	e := mc.Env{Ctx: ctx, Tag: stageTag(experiment, stage)}
	if r != nil {
		e.Exec = r.Exec
	}
	if r != nil && r.Progress != nil {
		sink := r.Progress
		e.OnShard = func(done, total int) {
			sink(Progress{Experiment: experiment, Stage: stage, Done: done, Total: total})
		}
	}
	return e
}

// note emits one progress event directly — for experiments that track
// coarse units (sweep points, apps) themselves instead of riding an
// engine run.
func (r *Runner) note(experiment, stage string, done, total int) {
	if r != nil && r.Progress != nil {
		r.Progress(Progress{Experiment: experiment, Stage: stage, Done: done, Total: total})
	}
}

// Result is the uniform outcome of one experiment run: the effective
// parameters it ran with and the rendered exhibits. It serializes to JSON
// (the registry's wire contract) and renders the same text/CSV tables the
// CLI always printed.
type Result struct {
	Experiment string   `json:"experiment"`
	Params     any      `json:"params,omitempty"`
	Tables     []*Table `json:"tables"`
}

// Render writes every table as aligned text, blank-line separated.
func (r *Result) Render(w io.Writer) error {
	for i, t := range r.Tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes every table as CSV records (titles become comment
// records when includeMeta).
func (r *Result) RenderCSV(w io.Writer, includeMeta bool) error {
	for i, t := range r.Tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := t.RenderCSV(w, includeMeta); err != nil {
			return err
		}
	}
	return nil
}

// JSON returns the indented JSON encoding of the result.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
