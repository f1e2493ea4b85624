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
// before the soft-error draw moved to the block mask of stats.Source,
// and any change to which bits flip, in which read, moves them. Each
// recovery golden covers all three policies (so retries re-read with
// fresh flips and saferestore writes back), per-arm qualities and the
// recovery counters; the ablation golden covers the per-draw path a
// *rand.Rand caller keeps.

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
	// samples is the SHA-256 of every stage's clean metric, per-arm
	// quality bits and recovery counters (worker-count independent).
	samples string
	// result is the SHA-256 of the Result JSON at Workers = 2.
	result string
}{
	{
		workload: "cgrestart",
		samples:  "163990cdbd9ade107c1216c70a9a09fb6dfc6ee835fbea0c0e659e39a7481104",
		result:   "77623bea79a5d2851a56a555e5fd6c87287b243ee2982b31bcdc01089971cc3a",
	},
	{
		workload: "cgsolve",
		samples:  "e99b6d7dbfb51ce4b9743ebfa1f48f65b6bcbf5cd527bc4695fb6c427ec21bfb",
		result:   "0e75fb0dbf228a8c5b6fb12c4136afd12b9d121c51035e5684e83b260f0a4ddd",
	},
}

// ablationTransientGolden is the SHA-256 of the ablate-transient
// Result JSON at its defaults with Workers = 2.
const ablationTransientGolden = "37b2600e9d6ffe979c4a336cf1df214a2658ca333a132d91b54e3beb035fd9ad"

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
