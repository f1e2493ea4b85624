// Package workload defines the error-resilient applications that run
// against faulty memories: a Workload prepares an immutable Instance
// (dataset or problem generation plus the fault-free reference), and
// the Instance executes Monte-Carlo trials against whatever protected
// memory the engine installs in its Workspace. The package owns the
// generic per-shard trial loop (TrialRunner) — per-arm memory reset,
// codeword-image caching, workspace reuse — so the warm-trial
// optimizations apply to every current and future workload, and adding
// an application means implementing two small interfaces instead of
// editing the Fig. 7 experiment.
package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"faultmem/internal/fault"
	"faultmem/internal/mat"
	"faultmem/internal/mem"
	"faultmem/internal/memstore"
	"faultmem/internal/ml"
	"faultmem/internal/wire"
)

// Params configures instance preparation. One flat struct serves every
// workload; each reads only the knobs it understands, and zero values
// select the documented defaults.
type Params struct {
	// Seed drives dataset/problem generation and the train/test split.
	Seed int64
	// MadelonPaperSize switches the PCA workload to the full 500-feature
	// geometry (slow; default false uses 100 features).
	MadelonPaperSize bool
	// Keys is the resilient-sort key count (0 = 8192).
	Keys int
	// Dim is the CG system dimension (0 = 64).
	Dim int
	// Iters is the CG iteration budget (0 = Dim).
	Iters int
	// Checkpoint is the cgrestart checkpoint interval in iterations
	// (0 = 8).
	Checkpoint int
	// Restarts is the cgrestart rollback budget (0 = 8; negative
	// disables rollback, so the first trip switches the guards off and
	// the solver degrades to absorbing corruption).
	Restarts int
}

// Workload is one error-resilient application. Implementations are
// stateless descriptors; all per-run state lives in the Instance.
type Workload interface {
	// Name is the canonical lowercase identifier ("elasticnet", "rsort").
	Name() string
	// Metric names the quality metric before normalization ("R^2").
	Metric() string
	// Prepare generates the problem instance and its fault-free
	// reference. The returned Instance must be safe for concurrent use
	// from many shards: read-only after Prepare, with all mutable trial
	// scratch kept in the per-shard Workspace.
	Prepare(p Params) (Instance, error)
}

// Instance is a prepared problem ready to run trials against faulty
// memories. Instances are shared read-only across engine shards.
type Instance interface {
	// StoreOn quantizes the instance's memory-resident data into the
	// workspace's clean-word cache (once per shard); trials then pay only
	// the fault-dependent round-trip work.
	StoreOn(ws *Workspace)
	// RunTrial runs the application once against ws.Mem (installed by the
	// TrialRunner with the trial's fault map) and returns the normalized
	// quality in [0, 1], where 1 is fault-free behaviour. An error is a
	// programming error — never fault-induced — and aborts the shard.
	// rng is the trial's RNG stream, positioned after the engine's fault
	// draws; deterministic workloads ignore it.
	RunTrial(ws *Workspace, rng *rand.Rand) (quality float64, err error)
	// Metric names the quality metric before normalization.
	Metric() string
	// Clean is the fault-free reference value of the metric (quality 1.0).
	Clean() float64
}

// Workspace is the per-shard mutable state of a trial pipeline: the
// fixed-point codec, the clean-word/codeword-image cache, the ML fit
// scratch, and the memory under test. Instances needing scratch beyond
// these hang it off Scratch, keyed by their own type, so warm trials
// stay allocation-free without the Instance itself becoming mutable.
type Workspace struct {
	Codec memstore.Codec
	Store memstore.Workspace
	ML    ml.Workspace
	// Mem is the protected memory of the current (trial, arm), installed
	// by the TrialRunner before each RunTrial call.
	Mem mem.Word32
	// Recovery is the detect-and-recover state of the current (trial,
	// arm), installed by the TrialRunner alongside Mem; nil means
	// PolicyNone and selects the plain cached round trips (bit-identical
	// to the pre-recovery engine). Instances round-trip through the
	// TripValues/TripDataset helpers so every workload honors the policy
	// without knowing it exists.
	Recovery *memstore.Recovery
	// Scratch is instance-defined per-shard scratch (nil until the
	// instance's first trial on this workspace).
	Scratch any
}

// TripValues round-trips the cached flat values through Mem under the
// active recovery policy (the plain cached trip when none is set). The
// returned slice is workspace scratch with the usual aliasing rules.
func (ws *Workspace) TripValues() []float64 {
	return ws.Codec.RoundTripCachedValues(&ws.Store, ws.Mem, ws.Recovery)
}

// TripDataset round-trips the cached dataset through Mem under the
// active recovery policy (see TripValues).
func (ws *Workspace) TripDataset() (*mat.Dense, []float64) {
	return ws.Codec.RoundTripCachedInto(&ws.Store, ws.Mem, ws.Recovery)
}

// Arm is a buildable protection scheme. exp.Protection satisfies it;
// the indirection keeps this package free of an import cycle with the
// experiment layer.
type Arm interface {
	fmt.Stringer
	Build(rows int, fm fault.Map) (mem.Word32, error)
}

// ShardOut is one engine shard's result: the span's trial-major,
// arm-minor normalized qualities, the shard's per-arm recovery counters
// (empty under PolicyNone), plus any trial error as text. The error
// travels as a string so the value has a binary form: the sweep service
// ships workload shards to remote workers instead of degrading the stage
// to local compute via JobError tag-poisoning.
//
// The form is the quality count and the qualities, the recovery count
// and per arm its five counters (Flagged, Retries, Recovered, Restored,
// BudgetDenied), and the error's length and bytes; every count, counter
// and quality is 8-byte little-endian (package wire).
type ShardOut struct {
	Qs       []float64
	Recovery []memstore.RecoveryStats
	Err      string
}

// AppendBinary appends the binary form of o.
func (o ShardOut) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, 8+8*len(o.Qs)+8+40*len(o.Recovery)+8+len(o.Err))
	b = wire.AppendUint64(b, uint64(len(o.Qs)))
	b = wire.AppendFloat64s(b, o.Qs)
	b = wire.AppendUint64(b, uint64(len(o.Recovery)))
	for _, st := range o.Recovery {
		for _, v := range [...]uint64{st.Flagged, st.Retries, st.Recovered, st.Restored, st.BudgetDenied} {
			b = wire.AppendUint64(b, v)
		}
	}
	return wire.AppendString(b, o.Err), nil
}

// UnmarshalBinary replaces o with the shard encoded in b.
func (o *ShardOut) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	var out ShardOut
	out.Qs = r.Float64s(r.Count(8))
	if n := r.Count(40); n > 0 {
		out.Recovery = make([]memstore.RecoveryStats, n)
		for i := range out.Recovery {
			out.Recovery[i] = memstore.RecoveryStats{
				Flagged: r.Uint64(), Retries: r.Uint64(), Recovered: r.Uint64(),
				Restored: r.Uint64(), BudgetDenied: r.Uint64(),
			}
		}
	}
	out.Err = r.Str()
	if err := r.Close(); err != nil {
		return fmt.Errorf("workload: corrupt ShardOut encoding: %w", err)
	}
	*o = out
	return nil
}
