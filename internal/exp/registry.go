package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
)

// Experiment is one campaign of the paper's evaluation behind the uniform
// streaming API: a registry name, a JSON-serializable default parameter
// set, and a context-aware run against a shared execution environment.
// Uncancelled runs are bit-identical for any worker count; a cancelled
// or deadlined context surfaces as ctx.Err() with no result and no
// leaked goroutines.
type Experiment interface {
	// Name is the registry key (the CLI's `faultmem run <name>`).
	Name() string
	// DefaultParams returns the experiment's default parameter struct —
	// the value Run uses when the Runner carries no override, and the
	// template JSON overrides are unmarshalled onto.
	DefaultParams() any
	// Run executes the campaign under the runner's environment and
	// returns the uniform Result.
	Run(ctx context.Context, r *Runner) (*Result, error)
}

// Describer is the optional listing-description facet of an
// Experiment: a one-line summary shown by `faultmem list`. Experiments
// without it list with an empty description — the interface stays
// optional so third-party Experiment implementations predating it keep
// compiling.
type Describer interface {
	// Description is a one-line summary for registry listings.
	Description() string
}

// entry is one registered experiment.
type entry struct {
	exp Experiment
}

// registry holds every experiment in presentation (paper) order. It is
// populated once by init below — a single explicit list, so the order
// never depends on file-level init sequencing.
var registry []entry
var registryIndex = map[string]int{}

// Register adds an experiment to the registry. It panics on a duplicate
// name — registry names are the wire contract of the run API.
func Register(e Experiment) {
	name := e.Name()
	if _, dup := registryIndex[name]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %q", name))
	}
	registryIndex[name] = len(registry)
	registry = append(registry, entry{exp: e})
}

func init() {
	Register(fig2Experiment{})
	Register(fig4Experiment{})
	Register(table1Experiment{})
	Register(fig5Experiment{})
	Register(fig6Experiment{})
	Register(fig7Experiment{})
	Register(workloadsExperiment{})
	Register(recoveryExperiment{})
	Register(energyExperiment{})
	Register(redundancyExperiment{})
	Register(paretoExperiment{})
	Register(bistcovExperiment{})
	Register(widthExperiment{})
	Register(multiFaultExperiment{})
	Register(lutExperiment{})
	Register(transientExperiment{})
}

// Experiments returns the registered names in presentation order.
func Experiments() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.exp.Name()
	}
	return names
}

// Describe returns the one-line listing description of an experiment
// (empty for experiments that do not implement Describer).
func Describe(name string) (string, bool) {
	i, ok := registryIndex[name]
	if !ok {
		return "", false
	}
	if d, ok := registry[i].exp.(Describer); ok {
		return d.Description(), true
	}
	return "", true
}

// Lookup returns the registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	i, ok := registryIndex[name]
	if !ok {
		return nil, false
	}
	return registry[i].exp, true
}

// ErrUnknownExperiment reports a name missing from the registry; its
// message lists every registered name so callers (and CLI users) see the
// valid vocabulary.
type ErrUnknownExperiment struct{ Name string }

func (e *ErrUnknownExperiment) Error() string {
	return fmt.Sprintf("exp: unknown experiment %q (registered: %s)",
		e.Name, strings.Join(Experiments(), ", "))
}

// Run executes one registered experiment by name under the runner's
// environment.
func Run(ctx context.Context, name string, r *Runner) (*Result, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, &ErrUnknownExperiment{Name: name}
	}
	return e.Run(ctx, r)
}

// RunStage runs only the engine run that tag names ("experiment" or
// "experiment/stage", the mc.Env.Tag the runner's Exec sees) inside the
// named experiment's campaign: the replay a sweep worker makes to
// compute one shard. Multi-stage experiments skip every other stage
// (see Runner.skips) and fail when the tag names none of their stages;
// single-stage ones run as usual. The campaign's
// Result would be partial, so it is discarded: the run is observed
// through r.Exec alone.
func RunStage(ctx context.Context, name string, r *Runner, tag string) error {
	e, ok := Lookup(name)
	if !ok {
		return &ErrUnknownExperiment{Name: name}
	}
	if tag != name && !strings.HasPrefix(tag, name+"/") {
		return fmt.Errorf("exp: tag %q names no engine run of %s", tag, name)
	}
	rs := &Runner{}
	if r != nil {
		*rs = *r
	}
	rs.stage = tag
	_, err := e.Run(ctx, rs)
	return err
}

// ExperimentError is one campaign's failure inside a RunAll sequence.
type ExperimentError struct {
	Name string
	Err  error
}

func (e *ExperimentError) Error() string { return fmt.Sprintf("%s: %v", e.Name, e.Err) }
func (e *ExperimentError) Unwrap() error { return e.Err }

// RunAllError aggregates the failures of a RunAll sequence that kept
// going past failing experiments. Failures preserves registry order.
type RunAllError struct{ Failures []*ExperimentError }

func (e *RunAllError) Error() string {
	names := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		names[i] = f.Name
	}
	return fmt.Sprintf("exp: %d of %d experiments failed (%s); first: %v",
		len(e.Failures), len(registry), strings.Join(names, ", "), e.Failures[0].Err)
}

// RunAll executes every registered experiment in presentation order,
// streaming each Result to emit as it completes. A failing experiment no
// longer aborts the sequence: the remaining campaigns still run, and the
// collected failures come back as a *RunAllError so callers can report
// exactly which campaigns failed. A context cancellation stops the
// iteration immediately (the aggregate then ends with that experiment's
// ctx error), as does an error from emit — if the sink is broken there is
// nowhere left to stream results. The runner's Params override is
// rejected: a single override cannot fit every experiment's params type.
func RunAll(ctx context.Context, r *Runner, emit func(*Result) error) error {
	if r != nil && r.Params != nil {
		return fmt.Errorf("exp: RunAll does not accept a params override")
	}
	return runAll(ctx, registry, r, emit)
}

// runAll is RunAll over an explicit experiment list — the testable core.
func runAll(ctx context.Context, entries []entry, r *Runner, emit func(*Result) error) error {
	var agg RunAllError
	for _, e := range entries {
		res, err := e.exp.Run(ctx, r)
		if err != nil {
			agg.Failures = append(agg.Failures, &ExperimentError{Name: e.exp.Name(), Err: err})
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if emit != nil {
			if err := emit(res); err != nil {
				return err
			}
		}
	}
	if len(agg.Failures) > 0 {
		return &agg
	}
	return nil
}

// runnerParams resolves the effective parameters of an experiment run:
// the runner's override when present — either the concrete params type or
// raw JSON unmarshalled over the defaults (the wire form of the sweep
// service) — and the experiment's DefaultParams otherwise. JSON overrides
// are strict: an unknown field (a typo like "trails" for "trials") fails
// the run loudly instead of silently running the defaults.
func runnerParams[T any](r *Runner, e Experiment) (T, error) {
	def := e.DefaultParams().(T)
	if r == nil || r.Params == nil {
		return def, nil
	}
	var raw []byte
	switch p := r.Params.(type) {
	case T:
		return p, nil
	case json.RawMessage:
		raw = p
	case []byte:
		raw = p
	default:
		var zero T
		return zero, fmt.Errorf("exp: %s params override is %T, want %T or json.RawMessage",
			e.Name(), r.Params, zero)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		var zero T
		return zero, fmt.Errorf("exp: %s params JSON: %w", e.Name(), err)
	}
	// Reject trailing garbage after the params object ("{...}{...}").
	if dec.More() {
		var zero T
		return zero, fmt.Errorf("exp: %s params JSON: trailing data after object", e.Name())
	}
	return def, nil
}
