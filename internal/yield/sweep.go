package yield

import (
	"math/rand"
	"sync"

	"faultmem/internal/mc"
)

// MSECDFSweepMapEnv evaluates the Fig. 5 Monte Carlo at every operating
// point (bit-cell failure probability) concurrently and maps each point's
// results, indexed by scheme, through reduce as soon as that point
// completes, returning the reduced values in pcells order. Only the
// reduced values are retained, so a long exact-mode sweep never holds
// more than the in-flight points' accumulators. Every point uses base's
// seed and budget — exactly what a serial loop over MSECDFAllEnv(base
// with Pcell=pcells[i]) would do — and MSECDFAllEnv's results are
// bit-identical for any worker count, so the sweep's output equals the
// serial loop's no matter how the points are scheduled.
//
// Each point is one shard of an outer mc.RunEnv whose pass keeps base's
// inner worker budget: the skewed low-voltage points (which hold most of
// the sweep's samples) still fan out across all cores instead of
// serializing on one goroutine, while the cheap points overlap around
// them. The Go scheduler time-slices the oversubscribed goroutines;
// determinism is unaffected because every engine result is
// worker-count-invariant.
//
// A sweep whose context is cancelled or deadlined mid-sweep returns
// ctx.Err(). The environment's OnShard callback counts completed
// operating points (not the inner engine shards, which would interleave
// across concurrent points); the context reaches the inner per-point
// campaigns, so cancellation is prompt even inside a single expensive
// point.
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
