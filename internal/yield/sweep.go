package yield

import (
	"fmt"
	"math/rand"
	"sync"

	"faultmem/internal/mc"
)

// MSECDFSweep evaluates the Fig. 5 Monte Carlo at every operating point
// (bit-cell failure probability) concurrently and returns the full
// results indexed [point][scheme], in pcells order. Every point uses
// base's seed and budget — exactly what a serial loop over
// MSECDFAll(base with Pcell=pcells[i]) would do — and MSECDFAll's
// results are bit-identical for any worker count, so the sweep's output
// equals the serial loop's no matter how the points are scheduled.
//
// Retaining every point's accumulator is fine at histogram-mode or
// test-scale budgets; callers that only need a few numbers per point
// (like the yieldcalc CLI) should reduce each point as it completes
// with MSECDFSweepMap instead.
func MSECDFSweep(base CDFParams, pcells []float64, schemes []Scheme) [][]CDFResult {
	return MSECDFSweepMap(base, pcells, schemes,
		func(_ int, rs []CDFResult) []CDFResult { return rs })
}

// MSECDFSweepMap runs the sweep and maps each operating point's results
// through reduce as soon as that point completes, retaining only the
// reduced values — so a long exact-mode sweep never holds more than the
// in-flight points' accumulators. Each point is one shard of an outer
// mc.Run whose pass keeps base's inner worker budget: the skewed
// low-voltage points (which hold most of the sweep's samples) still
// fan out across all cores instead of serializing on one goroutine,
// while the cheap points overlap around them. The Go scheduler
// time-slices the oversubscribed goroutines; determinism is unaffected
// because every engine result is worker-count-invariant.
func MSECDFSweepMap[T any](base CDFParams, pcells []float64, schemes []Scheme,
	reduce func(point int, rs []CDFResult) T) []T {
	out, err := MSECDFSweepMapEnv(mc.Env{}, base, pcells, schemes, reduce)
	if err != nil {
		// The zero Env's background context never cancels, so only bad
		// params land here.
		panic(fmt.Sprintf("yield: background sweep failed: %v", err))
	}
	return out
}

// MSECDFSweepMapEnv is MSECDFSweepMap under an execution environment:
// identical output when the context stays live, ctx.Err() when it is
// cancelled or deadlined mid-sweep. The environment's OnShard callback
// counts completed operating points (not the inner engine shards, which
// would interleave across concurrent points); the context reaches the
// inner per-point campaigns, so cancellation is prompt even inside a
// single expensive point.
func MSECDFSweepMapEnv[T any](env mc.Env, base CDFParams, pcells []float64, schemes []Scheme,
	reduce func(point int, rs []CDFResult) T) ([]T, error) {
	if len(pcells) == 0 {
		return nil, env.Context().Err()
	}
	inner := mc.Env{Ctx: env.Ctx} // points report progress; shards stay quiet
	var mu sync.Mutex
	var firstErr error
	out, err := mc.RunEnv(env, base.Workers, len(pcells), base.Seed,
		func(i int, _ *rand.Rand) T {
			q := base
			q.Pcell = pcells[i]
			// All randomness comes from q.Seed inside MSECDFAllEnv, not
			// the shard RNG.
			rs, err := MSECDFAllEnv(inner, q, schemes)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				var zero T
				return zero
			}
			return reduce(i, rs)
		})
	if err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
