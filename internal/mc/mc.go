// Package mc is the deterministic parallel Monte-Carlo engine shared by
// the experiment layer: work is split into a fixed number of shards, each
// shard draws from its own RNG stream derived from (seed, shard) via
// stats.Derive, and shard results are returned in shard order. Because
// the shard count and per-shard streams are independent of how many
// worker goroutines execute them, the merged output is bit-identical for
// any worker count — the property the Fig. 5 determinism regression test
// locks in.
package mc

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"faultmem/internal/stats"
)

// DefaultShards is the shard count used when a caller passes 0. It is a
// fixed constant — never derived from the worker count — so that results
// do not depend on the machine's parallelism. 64 shards keep every core
// of typical runners busy while bounding per-shard merge overhead.
const DefaultShards = 64

// Workers normalizes a worker-count parameter: n < 1 selects
// runtime.GOMAXPROCS(0), anything else passes through.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Env carries the cross-cutting execution controls of one engine run:
// cooperative cancellation, shard-completion progress, and (optionally)
// an external shard executor. The zero value is a background context with
// no progress reporting, making RunEnv behave exactly like Run.
type Env struct {
	// Ctx, when non-nil, cancels the run: workers stop claiming shards as
	// soon as the context is done and RunEnv returns ctx.Err(). Shard
	// functions that run long should additionally poll Done() themselves.
	Ctx context.Context
	// OnShard, when non-nil, is invoked after every completed shard with
	// the number of shards finished so far and the total. Calls are
	// serialized, so the callback needs no locking of its own, but it runs
	// on worker goroutines and must be cheap.
	OnShard func(done, total int)
	// Tag identifies this engine run to an external executor — typically
	// "experiment" or "experiment/stage". Two RunEnv calls of the same
	// campaign must carry distinct tags so shard indices do not collide on
	// the wire. Ignored when Exec is nil.
	Tag string
	// Exec, when non-nil, takes over shard execution: the engine calls it
	// once per shard instead of running the shard function directly, and
	// the claiming goroutine count is lifted to the shard count (Exec is
	// expected to block on I/O or gate its own compute). See ExecFunc for
	// the contract. The shard-level work export of the multi-host sweep
	// service hangs off this hook.
	Exec ExecFunc
}

// Context returns the run's context, defaulting to context.Background().
func (e Env) Context() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// Done returns the context's done channel (nil — never ready — for the
// zero Env), for cheap polling inside hot shard loops.
func (e Env) Done() <-chan struct{} {
	if e.Ctx == nil {
		return nil
	}
	return e.Ctx.Done()
}

// ShardJob is one unit of exported shard work: everything an external
// executor needs to run the shard locally, ship it to a remote host, or
// decode a remotely computed result back into the engine's shard type.
// The (seed, shard) RNG derivation is baked into Run, so a shard computes
// the same bits no matter which host executes it.
type ShardJob struct {
	// Ctx is the engine run's context; executors that block (on a queue,
	// a network round trip, a semaphore) must honor it.
	Ctx context.Context
	// Tag identifies the engine run (Env.Tag), Shard this job's index in
	// [0, Shards). A remote replay must verify Shards matches before
	// trusting Shard to mean the same slice of work.
	Tag           string
	Shard, Shards int
	// Run computes the shard locally and returns its value (the engine's
	// shard type T).
	Run func() any
	// Encode serializes a value produced by Run for the wire; it fails
	// when the shard type is not serializable, which executors should
	// treat as "this shard must run on this host".
	Encode func(v any) ([]byte, error)
	// Decode reverses Encode into the engine's shard type.
	Decode func(b []byte) (any, error)
}

// ExecFunc executes one exported shard on behalf of the engine. It
// returns the shard's value (obtained from job.Run or job.Decode), or
// ErrShardSkipped to leave the shard uncomputed (the run then fails with
// ErrPartialRun so the holes can never be merged as results), or any
// other error to abort the run.
type ExecFunc func(job ShardJob) (any, error)

// ErrShardSkipped is returned by an ExecFunc to decline a shard without
// aborting the run — the selection mechanism of a replay harness that
// wants exactly one shard of a campaign.
var ErrShardSkipped = errors.New("mc: shard skipped by executor")

// ErrPartialRun reports that an executor skipped at least one shard: the
// output slice has holes and was withheld, so partial state can never be
// merged as a complete result.
var ErrPartialRun = errors.New("mc: executor skipped shards")

// Run executes fn for every shard in [0, shards) on a pool of workers and
// returns the per-shard results indexed by shard. Each shard receives an
// RNG derived deterministically from (seed, shard), so the result slice —
// and anything merged from it in shard order — is identical for every
// worker count, including workers == 1.
//
// fn must not share mutable state across shards; everything it needs
// should live in its closure or be allocated per call.
func Run[T any](workers, shards int, seed int64, fn func(shard int, rng *rand.Rand) T) []T {
	out, err := RunEnv(Env{}, workers, shards, seed, fn)
	if err != nil {
		// Unreachable: the zero Env's background context never cancels.
		panic(fmt.Sprintf("mc: background run failed: %v", err))
	}
	return out
}

// RunEnv is Run under an execution environment: the same deterministic
// sharded schedule — per-shard streams derived from (seed, shard), results
// in shard order, bit-identical for any worker count — plus cooperative
// cancellation and per-shard progress notification. When the environment's
// context is cancelled, workers stop claiming new shards, every in-flight
// shard is allowed to return (so no goroutine leaks), and RunEnv returns
// nil results with ctx.Err(). An uncancelled RunEnv returns exactly what
// Run would.
func RunEnv[T any](env Env, workers, shards int, seed int64, fn func(shard int, rng *rand.Rand) T) ([]T, error) {
	if shards < 0 {
		panic(fmt.Sprintf("mc: negative shard count %d", shards))
	}
	ctx := env.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if shards == 0 {
		return nil, nil
	}
	done := env.Done()
	out := make([]T, shards)
	// The count advances under the same lock that serializes the callback,
	// so OnShard sees done = 1, 2, ..., shards in order even when two
	// shards finish at once.
	completed := 0
	var noteMu sync.Mutex
	note := func() {
		if env.OnShard == nil {
			return
		}
		noteMu.Lock()
		completed++
		env.OnShard(completed, shards)
		noteMu.Unlock()
	}
	if env.Exec != nil {
		return runExec(env, ctx, shards, seed, fn, out, note)
	}
	w := Workers(workers)
	if w > shards {
		w = shards
	}
	if w == 1 {
		// Fast path: no goroutines and no atomics. Bit-identical to the
		// parallel path by construction (same per-shard streams).
		for s := 0; s < shards; s++ {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
			out[s] = fn(s, stats.Derive(seed, int64(s)))
			note()
		}
		// A cancellation during the final shard must not surface as a
		// clean result: shard functions may have bailed out early with
		// partial output.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				out[s] = fn(s, stats.Derive(seed, int64(s)))
				note()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// runExec is the exported-shard execution path of RunEnv: every shard is
// handed to env.Exec as a ShardJob. One goroutine is spawned per shard —
// executors block on I/O (a remote round trip) or gate their own local
// compute, so lifting the claiming parallelism to the shard count keeps a
// remote fleet saturated without changing which values any shard yields.
func runExec[T any](env Env, ctx context.Context, shards int, seed int64,
	fn func(shard int, rng *rand.Rand) T, out []T, note func()) ([]T, error) {
	done := env.Done()
	var next, skipped atomic.Int64
	var failed atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	var wg sync.WaitGroup
	wg.Add(shards)
	for i := 0; i < shards; i++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				select {
				case <-done:
					return
				default:
				}
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				job := ShardJob{
					Ctx:    ctx,
					Tag:    env.Tag,
					Shard:  s,
					Shards: shards,
					Run:    func() any { return fn(s, stats.Derive(seed, int64(s))) },
					Encode: func(v any) ([]byte, error) {
						var buf bytes.Buffer
						if err := gob.NewEncoder(&buf).Encode(v); err != nil {
							return nil, fmt.Errorf("mc: encode shard %d of %q: %w", s, env.Tag, err)
						}
						return buf.Bytes(), nil
					},
					Decode: func(b []byte) (any, error) {
						var v T
						if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
							return nil, fmt.Errorf("mc: decode shard %d of %q: %w", s, env.Tag, err)
						}
						return v, nil
					},
				}
				v, err := env.Exec(job)
				switch {
				case err == nil:
					t, ok := v.(T)
					if !ok {
						fail(fmt.Errorf("mc: executor returned %T for shard %d of %q, want %T", v, s, env.Tag, t))
						return
					}
					out[s] = t
					note()
				case errors.Is(err, ErrShardSkipped):
					skipped.Add(1)
				default:
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if n := skipped.Load(); n > 0 {
		return nil, fmt.Errorf("%w: %d of %d", ErrPartialRun, n, shards)
	}
	return out, nil
}

// Span is a contiguous half-open range [Start, End) of global sample
// indices owned by one shard.
type Span struct{ Start, End int }

// Split partitions total samples into shards contiguous spans whose sizes
// differ by at most one. It returns fewer spans than requested when total
// < shards (every span non-empty). shards == 0 selects DefaultShards.
func Split(total, shards int) []Span {
	if total < 0 {
		panic(fmt.Sprintf("mc: negative total %d", total))
	}
	if shards == 0 {
		shards = DefaultShards
	}
	if shards < 0 {
		panic(fmt.Sprintf("mc: negative shard count %d", shards))
	}
	if shards > total {
		shards = total
	}
	spans := make([]Span, shards)
	for s := 0; s < shards; s++ {
		spans[s] = Span{Start: s * total / shards, End: (s + 1) * total / shards}
	}
	return spans
}
