package mc

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// run is RunEnv under the zero Env, whose background context never
// cancels.
func run[T any](t testing.TB, workers, shards int, seed int64, fn func(shard int, rng *rand.Rand) T) []T {
	t.Helper()
	out, err := RunEnv(Env{}, workers, shards, seed, fn)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunShardOrderAndDeterminism(t *testing.T) {
	// Each shard reports its first RNG draw; the result must be identical
	// for every worker count and indexed by shard.
	runAt := func(workers int) []float64 {
		return run(t, workers, 32, 7, func(shard int, rng *rand.Rand) float64 {
			return float64(shard) + rng.Float64()
		})
	}
	ref := runAt(1)
	if len(ref) != 32 {
		t.Fatalf("got %d results", len(ref))
	}
	for i, v := range ref {
		if int(v) != i {
			t.Fatalf("result %d out of shard order: %g", i, v)
		}
	}
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0), 100} {
		got := runAt(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d shard %d: %g != %g", w, i, got[i], ref[i])
			}
		}
	}
}

func TestRunStreamsIndependent(t *testing.T) {
	// Different shards must draw from different streams.
	out := run(t, 1, 8, 1, func(_ int, rng *rand.Rand) float64 { return rng.Float64() })
	seen := map[float64]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate first draw %g across shards", v)
		}
		seen[v] = true
	}
}

func TestRunZeroShards(t *testing.T) {
	if out := run[int](t, 4, 0, 1, nil); out != nil {
		t.Fatalf("zero shards returned %v", out)
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Error("non-positive workers should select GOMAXPROCS")
	}
	if Workers(5) != 5 {
		t.Error("positive workers should pass through")
	}
}

func TestSplitCoversEverySample(t *testing.T) {
	for _, tc := range []struct{ total, shards int }{
		{0, 64}, {1, 64}, {63, 64}, {64, 64}, {1000, 64}, {1000, 7}, {5, 0},
	} {
		spans := Split(tc.total, tc.shards)
		next := 0
		for _, sp := range spans {
			if sp.Start != next {
				t.Fatalf("total=%d shards=%d: gap at %d", tc.total, tc.shards, next)
			}
			if sp.End < sp.Start {
				t.Fatalf("negative span %+v", sp)
			}
			next = sp.End
		}
		if next != tc.total {
			t.Fatalf("total=%d shards=%d: covered %d", tc.total, tc.shards, next)
		}
		if tc.total > 0 && tc.total < 64 {
			for _, sp := range spans {
				if sp.End == sp.Start {
					t.Fatalf("empty span with total=%d", tc.total)
				}
			}
		}
	}
}

func TestRunEnvCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	out, err := RunEnv(Env{Ctx: ctx}, 4, 16, 1, func(int, *rand.Rand) int {
		calls.Add(1)
		return 0
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("cancelled run returned results: %v", out)
	}
	if calls.Load() != 0 {
		t.Fatalf("cancelled run executed %d shards", calls.Load())
	}
}

func TestRunEnvCancelMidRunNoLeak(t *testing.T) {
	// Cancel from the progress callback after the first completed shard:
	// the run must return ctx.Err() promptly — long before all shards
	// could have executed — and every worker goroutine must exit.
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	const shards = 1024
	env := Env{Ctx: ctx, OnShard: func(done, total int) {
		if done == 1 {
			cancel()
		}
	}}
	_, err := RunEnv(env, 2, shards, 1, func(int, *rand.Rand) int {
		executed.Add(1)
		time.Sleep(time.Millisecond)
		return 0
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// With 2 workers and cancellation after the first completion, only the
	// shards already claimed may finish — nowhere near the full 1024.
	if n := executed.Load(); n >= shards/2 {
		t.Fatalf("cancel was not prompt: %d of %d shards ran", n, shards)
	}
	// Workers must be gone (RunEnv waits on them before returning), so the
	// goroutine count settles back to the baseline.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= base {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunEnvProgress(t *testing.T) {
	var events [][2]int
	env := Env{OnShard: func(done, total int) { events = append(events, [2]int{done, total}) }}
	if _, err := RunEnv(env, 4, 32, 1, func(int, *rand.Rand) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	if len(events) != 32 {
		t.Fatalf("%d progress events, want 32", len(events))
	}
	for i, e := range events {
		if e[0] != i+1 || e[1] != 32 {
			t.Fatalf("event %d = %v, want [%d 32]", i, e, i+1)
		}
	}
}
