package workload

import (
	"fmt"
	"math/rand"

	"faultmem/internal/fault"
	"faultmem/internal/mem"
	"faultmem/internal/memstore"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
)

// Config fixes the memory geometry and the protection arms a
// TrialRunner pushes every trial through.
type Config struct {
	// Name labels trial errors ("elasticnet").
	Name string
	// Rows is the memory macro depth (4096 = 16 KB).
	Rows int
	// Pcell is the bit-cell failure probability.
	Pcell float64
	// Arms are the protection schemes compared on each trial's die.
	Arms []Arm
	// Policy is the detect-and-recover behavior applied to every
	// checked round trip. The zero value (PolicyNone) keeps the plain
	// cached path — bit-identical qualities to the pre-recovery engine.
	Policy RecoveryPolicy
	// TransientRate enables per-read soft errors at this per-bit rate on
	// arms that expose their bit-cell array (all eight protection arms);
	// 0 disables. The flips draw from the trial's RNG stream, so results
	// stay bit-identical at any worker count.
	TransientRate float64
}

// TrialRunner executes warm Monte-Carlo trials for one shard: it owns
// the per-shard scratch (one functional memory per arm reinstalled in
// place via mem.Resetter, the clean-word/codeword-image cache, the
// per-arm recovery state, and the workload's fit scratch), so after the
// first trial the whole fault-map -> memory -> round-trip -> run ->
// score pipeline runs allocation-free except for fault-map generation
// itself.
type TrialRunner struct {
	cfg   Config
	inst  Instance
	cells int
	mems  []mem.Word32
	recs  []memstore.Recovery // per-arm recovery state; nil under PolicyNone
	ws    Workspace
	// src is the trial's stream, reseeded every trial, and rng draws
	// from it: soft errors draw straight from src in blocks, everything
	// else through rng, one stream either way.
	src *stats.Source
	rng *rand.Rand
}

// arrayAccessor is the facet of a memory that exposes its bit-cell
// array (every concrete arm does); the transient-fault injector needs
// it.
type arrayAccessor interface {
	Array() *sram.Array
}

// NewTrialRunner builds a shard runner and quantizes the instance's
// memory-resident data once: each round trip then pays only the
// fault-dependent work (writes, reads, decode).
func NewTrialRunner(inst Instance, cfg Config) *TrialRunner {
	r := &TrialRunner{
		cfg:   cfg,
		inst:  inst,
		cells: cfg.Rows * mem.DataWidth,
		mems:  make([]mem.Word32, len(cfg.Arms)),
		src:   stats.NewSource(0),
	}
	r.rng = rand.New(r.src)
	if cfg.Policy.Active() {
		r.recs = make([]memstore.Recovery, len(cfg.Arms))
		for i := range r.recs {
			r.recs[i] = cfg.Policy.recovery()
		}
	}
	r.ws.Codec = memstore.DefaultCodec()
	inst.StoreOn(&r.ws)
	return r
}

// RecoveryStats returns a snapshot of the per-arm recovery counters
// accumulated so far, in arm order (nil when the policy is None).
func (r *TrialRunner) RecoveryStats() []memstore.RecoveryStats {
	if r.recs == nil {
		return nil
	}
	out := make([]memstore.RecoveryStats, len(r.recs))
	for i := range r.recs {
		out[i] = r.recs[i].Stats
	}
	return out
}

// RunTrial executes one Monte-Carlo trial: it draws the die's fault map
// from the trial's own RNG stream (derived from (seedBase, trial), so
// results are bit-identical at any worker or shard count) and appends
// one normalized quality per arm to out. The die's failure count is
// drawn from the Eq. (4) Binomial prior conditioned on at least one
// failure — fault-free dies have quality 1 by construction and are
// excluded from the CDF, matching Fig. 7's curves — and the same fault
// map drives every arm (common random numbers).
func (r *TrialRunner) RunTrial(seedBase int64, trial int, out []float64) ([]float64, error) {
	// The stats.Derive(seedBase, trial) stream, on the runner's source.
	rng := r.rng
	rng.Seed(stats.DeriveSeed(seedBase, int64(trial)))
	n := 0
	for n == 0 {
		n = stats.SampleBinomial(rng, r.cells, r.cfg.Pcell)
	}
	fm := fault.GenerateCount(rng, r.cfg.Rows, mem.DataWidth, n, fault.Flip)
	for ai, arm := range r.cfg.Arms {
		var m mem.Word32
		var err error
		if rs, ok := r.mems[ai].(mem.Resetter); ok {
			m, err = r.mems[ai], rs.Reset(fm)
		} else {
			m, err = arm.Build(r.cfg.Rows, fm)
			r.mems[ai] = m
		}
		if err != nil {
			return out, fmt.Errorf("workload: %s trial %d arm %v: %w", r.cfg.Name, trial, arm, err)
		}
		if r.cfg.TransientRate > 0 {
			if aa, ok := m.(arrayAccessor); ok {
				// Soft errors draw from the trial's stream: the arms run in
				// fixed order, so the draws are deterministic per trial.
				// Handing over the source itself lets every read draw its
				// flip mask in one block.
				aa.Array().SetTransient(r.cfg.TransientRate, r.src)
			}
		}
		if r.recs != nil {
			rec := &r.recs[ai]
			rec.ResetTrial()
			r.ws.Recovery = rec
		} else {
			r.ws.Recovery = nil
		}
		r.ws.Mem = m
		q, err := r.inst.RunTrial(&r.ws, rng)
		if err != nil {
			return out, fmt.Errorf("workload: %s trial %d arm %v: %w", r.cfg.Name, trial, arm, err)
		}
		out = append(out, q)
	}
	return out, nil
}
