package exp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// The soft-error stream is pinned here: these digests were captured
// when each arm came to draw its soft errors from its own stream, keyed
// by the trial and the arm's scheme, by a countdown of geometric gaps
// between flips (the die's fault count by an exact Binomial draw), and
// any change to which bits flip, in which read, moves them. Each
// recovery golden covers all three policies as the campaign reports
// them (so retries re-read with fresh flips and saferestore writes
// back, and the codeless rows the later policies borrow from the first
// are pinned too), per-arm qualities and the recovery counters; the
// ablation golden covers a caller that hands SetTransient a *rand.Rand.

// transientGoldenParams is the small soft-error geometry: a 512-word
// macro at a soft-error rate high enough that every trial sees flips.
func transientGoldenParams(workloadName string, workers int) RecoveryParams {
	return RecoveryParams{
		Workload:      workloadName,
		Rows:          512,
		Pcell:         2e-3,
		Trials:        4,
		Seed:          7,
		Retries:       2,
		SafeWords:     256,
		TransientRate: 1e-3,
		Dim:           32,
		Workers:       workers,
	}
}

var transientGolden = []struct {
	workload string
	// samples is the SHA-256 of every policy's clean metric, and its
	// eight arms' quality bits and recovery counters
	// (worker-count independent).
	samples string
	// result is the SHA-256 of the Result JSON at Workers = 2.
	result string
}{
	{
		workload: "cgrestart",
		samples:  "c41179bd47355d2538667833bdd4964f0a63ff217b401d171f99bbd659cf223a",
		result:   "6595e181077648647bcdee0a53704bbcfb469c811ed6df007ac081f0647b4215",
	},
	{
		workload: "cgsolve",
		samples:  "789e56d5156b51fc59aeca9974f8bde1482a474c7e790b9ae828e5c71fe9e880",
		result:   "6fcb665ee9d5bfb0871ee219404ca6f50e04c0a67f614012fa914a77525ed69f",
	},
}

// ablationTransientGolden is the SHA-256 of the ablate-transient
// Result JSON at its defaults with Workers = 2.
const ablationTransientGolden = "cf87585ee84ca7305dd329f812edc6308dfaadd79774bf9513dee83963793118"

// qualitySamplesDigest hashes a quality campaign's raw output: stage
// names, clean metrics, per-arm quality bits and recovery counters.
func qualitySamplesDigest(runs []qualityRun) string {
	h := sha256.New()
	for _, run := range runs {
		h.Write([]byte(run.stage.name))
		putBits(h, math.Float64bits(run.clean))
		for _, arm := range run.arms {
			h.Write([]byte(arm.Scheme.String()))
			for _, q := range arm.Qualities {
				putBits(h, math.Float64bits(q))
			}
		}
		for _, s := range run.recovery {
			for _, c := range []uint64{s.Flagged, s.Retries, s.Recovered, s.Restored, s.BudgetDenied} {
				putBits(h, c)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putBits(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// resultDigest runs a registered experiment and hashes its Result JSON.
func resultDigest(t *testing.T, name string, r *Runner) string {
	t.Helper()
	res, err := Run(context.Background(), name, r)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}

// TestTransientStreamGolden pins the recovery campaign's soft-error
// stream on cgrestart and cgsolve, at two worker counts.
func TestTransientStreamGolden(t *testing.T) {
	for _, g := range transientGolden {
		for _, workers := range []int{1, 3} {
			runs, err := qualityRuns("recovery", &Runner{Params: transientGoldenParams(g.workload, workers)})
			if err != nil {
				t.Fatalf("%s: %v", g.workload, err)
			}
			if len(runs) != 3 {
				t.Fatalf("%s: %d policy runs, want 3", g.workload, len(runs))
			}
			for _, run := range runs {
				if len(run.arms) != len(AllProtections()) {
					t.Fatalf("%s %s: %d arms, want all eight", g.workload, run.stage.name, len(run.arms))
				}
			}
			// The retry stage must see soft errors that a re-read clears,
			// or the golden would not pin the soft-error stream at all.
			var recovered uint64
			for _, s := range runs[1].recovery {
				recovered += s.Recovered
			}
			if runs[1].stage.name != "retry" || recovered == 0 {
				t.Fatalf("%s: stage %q recovered %d words; want retry recovering some", g.workload, runs[1].stage.name, recovered)
			}
			if got := qualitySamplesDigest(runs); got != g.samples {
				t.Errorf("%s workers=%d: samples digest %s, want %s", g.workload, workers, got, g.samples)
			}
		}
		got := resultDigest(t, "recovery", &Runner{Params: transientGoldenParams(g.workload, 2)})
		if got != g.result {
			t.Errorf("%s: Result JSON digest %s, want %s", g.workload, got, g.result)
		}
	}
}

// TestAblationTransientGolden pins ablate-transient at its defaults.
func TestAblationTransientGolden(t *testing.T) {
	if got := resultDigest(t, "ablate-transient", &Runner{Workers: 2}); got != ablationTransientGolden {
		t.Errorf("ablate-transient Result JSON digest %s, want %s", got, ablationTransientGolden)
	}
}
