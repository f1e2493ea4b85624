package exp

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"faultmem/internal/mc"
	"faultmem/internal/workload"
)

// waitGoroutines polls until the goroutine count settles back to the
// baseline (the engine must join every worker before returning).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFig5CancelMidCampaign cancels the Fig. 5 Monte Carlo from its own
// progress callback — one shard in — and expects a prompt ctx.Err()
// return with no worker goroutines left behind.
func TestFig5CancelMidCampaign(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := DefaultFig5Params()
	p.CDF.Trun = 2e5
	env := mc.Env{Ctx: ctx, OnShard: func(done, total int) {
		if done == 1 {
			cancel()
		}
	}}
	_, err := Fig5(env, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)

	// The same campaign through the registry surfaces the same error.
	if _, err := Run(ctx, "fig5", &Runner{Params: p}); !errors.Is(err, context.Canceled) {
		t.Fatalf("registry err = %v, want context.Canceled", err)
	}
}

// TestFig7DeadlineQuickBudget deadlines the slowest Fig. 7 arm (the PCA
// benchmark) at the -quick trial budget: the campaign must return
// ctx.Err() long before its multi-second serial runtime, through the
// per-trial cancellation polling inside each engine shard.
func TestFig7DeadlineQuickBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 7 Monte Carlo is slow")
	}
	base := runtime.NumGoroutine()
	p := DefaultFig7Params(workload.PCA)
	p.Trials = QuickFig7Trials
	p.Workers = 1 // serial: the campaign cannot outrun the deadline
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, "fig7", &Runner{Params: []Fig7Params{p}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The quick PCA budget runs for several seconds serially; a deadlined
	// run must come back within a small multiple of the deadline (one
	// in-flight trial per worker may still drain).
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline return took %v", elapsed)
	}
	waitGoroutines(t, base)
}

// TestExperimentsHonorPreCancelledContext sweeps the registry with an
// already-cancelled context: every experiment must refuse to run.
func TestExperimentsHonorPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Experiments() {
		if _, err := Run(ctx, name, &Runner{Quick: true}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestSweepCancelPropagates cancels the yieldcalc-style VDD sweep through
// its environment and expects ctx.Err() from the outer call.
func TestSweepCancelPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, "energy", &Runner{Quick: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
