package exp

import (
	"context"
	"math"
	"testing"

	"faultmem/internal/workload"
)

// recoveryTestParams is the small shared geometry: every row of the
// 512-word macro is in play (cgsolve at dim 32 pages 1056 words through
// it), so persistent double faults reliably hit live data.
func recoveryTestParams() RecoveryParams {
	return RecoveryParams{
		Workload: "cgsolve",
		Policies: []string{"none"},
		Rows:     512,
		Pcell:    2e-3,
		Trials:   6,
		Seed:     7,
		Dim:      32,
	}
}

// TestRecoveryParamsValidation pins the campaign's input contract.
func TestRecoveryParamsValidation(t *testing.T) {
	for name, mutate := range map[string]func(*RecoveryParams){
		"zero trials":      func(p *RecoveryParams) { p.Trials = 0 },
		"bad pcell":        func(p *RecoveryParams) { p.Pcell = 1 },
		"bad transient":    func(p *RecoveryParams) { p.TransientRate = 1 },
		"negative retries": func(p *RecoveryParams) { p.Retries = -1 },
		"negative budget":  func(p *RecoveryParams) { p.SafeWords = -2 },
		"unknown workload": func(p *RecoveryParams) { p.Workload = "bogus" },
		"unknown policy":   func(p *RecoveryParams) { p.Policies = []string{"bogus"} },
		"duplicate policy": func(p *RecoveryParams) { p.Policies = []string{"retry", "retry"} },
	} {
		p := recoveryTestParams()
		mutate(&p)
		if _, err := Run(context.Background(), "recovery", &Runner{Params: p}); err == nil {
			t.Errorf("%s: params accepted", name)
		}
	}
}

// TestRecoveryNoneMatchesWorkloadsGolden pins the acceptance criterion:
// the "none" policy takes the plain cached round-trip path, so the
// recovery campaign's per-arm qualities are float-bit identical to the
// workloads campaign on the same geometry — at every worker count, with
// no recovery counters recorded.
func TestRecoveryNoneMatchesWorkloadsGolden(t *testing.T) {
	p := recoveryTestParams()
	wk, err := qualityRuns("workloads", &Runner{Params: WorkloadsParams{
		Workloads: []string{p.Workload},
		Rows:      p.Rows,
		Pcell:     p.Pcell,
		Trials:    p.Trials,
		Seed:      p.Seed,
		Dim:       p.Dim,
		Workers:   1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := wk[0].arms

	for _, workers := range []int{1, 4, 7} {
		q := p
		q.Workers = workers
		runs, err := qualityRuns("recovery", &Runner{Params: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || runs[0].stage.name != "none" {
			t.Fatalf("workers=%d: runs %+v", workers, runs)
		}
		run := runs[0]
		if run.recovery != nil {
			t.Fatalf("workers=%d: the none policy recorded recovery stats", workers)
		}
		if len(run.arms) != len(want) {
			t.Fatalf("workers=%d: %d arms, want %d", workers, len(run.arms), len(want))
		}
		for ai := range want {
			if run.arms[ai].Scheme != want[ai].Scheme {
				t.Fatalf("workers=%d: arm %d is %v, want %v", workers, ai, run.arms[ai].Scheme, want[ai].Scheme)
			}
			for qi := range want[ai].Qualities {
				g, w := run.arms[ai].Qualities[qi], want[ai].Qualities[qi]
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("workers=%d: arm %v sample %d: %v, want %v (bit-identical)",
						workers, run.arms[ai].Scheme, qi, g, w)
				}
			}
		}
	}
}

// TestSafeRestoreBeatsNoneOnSECDED pins the campaign's reason to exist:
// under a heavy persistent fault load, the saferestore policy must lift
// mean quality strictly above the none baseline on at least one SECDED
// arm while actually restoring words — the paired common-random-numbers
// design means the lift can only come from recovery itself.
func TestSafeRestoreBeatsNoneOnSECDED(t *testing.T) {
	p := recoveryTestParams()
	p.Policies = []string{"none", "saferestore"}
	p.Pcell = 5e-3 // heavy load: double faults land in most dies
	p.Trials = 12
	runs, err := qualityRuns("recovery", &Runner{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d runs", len(runs))
	}
	none, sr := runs[0], runs[1]
	if len(sr.recovery) != len(AllProtections()) {
		t.Fatalf("saferestore stats cover %d arms", len(sr.recovery))
	}
	improved := false
	for ai, arm := range AllProtections() {
		nm, sm := none.arms[ai].Mean(), sr.arms[ai].Mean()
		if sm < nm {
			t.Errorf("%v: saferestore mean %v below none %v — restores made quality worse", arm, sm, nm)
		}
		if sm > nm && sr.recovery[ai].Restored > 0 {
			improved = true
		}
	}
	if !improved {
		t.Error("no arm improved with restores recorded; the policy is inert")
	}
	// The SECDED arms detect; the codeless arms have nothing to flag, so
	// their qualities must be untouched by the policy (bit-identical).
	for qi := range none.arms[0].Qualities {
		g, w := sr.arms[0].Qualities[qi], none.arms[0].Qualities[qi]
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("unprotected arm sample %d moved under saferestore: %v vs %v", qi, g, w)
		}
	}
	if sr.recovery[0].Flagged != 0 {
		t.Errorf("unprotected arm flagged %d words", sr.recovery[0].Flagged)
	}
}

// TestRecoveryRetryRecoversTransients pins the retry column: with soft
// errors enabled and a light persistent load, the bounded re-reads
// recover flagged words on the detecting arms.
func TestRecoveryRetryRecoversTransients(t *testing.T) {
	p := recoveryTestParams()
	p.Policies = []string{"retry"}
	p.Pcell = 5e-4
	p.TransientRate = 2e-3
	p.Retries = 8
	runs, err := qualityRuns("recovery", &Runner{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	var flagged, recovered uint64
	for _, s := range runs[0].recovery {
		flagged += s.Flagged
		recovered += s.Recovered
	}
	if flagged == 0 {
		t.Fatal("soft errors flagged nothing — the campaign exercises no recovery")
	}
	if recovered == 0 {
		t.Error("retries recovered nothing")
	}
}

// TestRecoveryExperimentRegistry drives the registry adapter: stage
// tables per policy, the headline grids first, and a bounded -quick
// budget.
func TestRecoveryExperimentRegistry(t *testing.T) {
	p := DefaultRecoveryParams()
	p.Rows = 512
	p.Dim = 32
	p.Trials = 100 // quick tier must clamp this
	res, err := Run(context.Background(), "recovery", &Runner{Quick: true, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.Params.(RecoveryParams)
	if !ok || got.Trials != QuickRecoveryTrials {
		t.Fatalf("quick tier did not clamp trials: %+v", res.Params)
	}
	// Two headline grids plus one counters table per active policy
	// (retry, saferestore).
	if len(res.Tables) != 4 {
		t.Fatalf("%d tables", len(res.Tables))
	}
	policies := len(workload.PolicyNames())
	if cols := len(res.Tables[0].Header); cols != 1+policies {
		t.Fatalf("mean grid has %d columns, want %d", cols, 1+policies)
	}
}
