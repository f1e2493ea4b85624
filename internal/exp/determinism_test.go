package exp

import (
	"math"
	"runtime"
	"testing"

	"faultmem/internal/mc"
	"faultmem/internal/workload"
)

// TestFig5DeterministicAcrossWorkerCounts is the engine's determinism
// regression test: the same seed must produce a byte-identical Fig. 5
// CDF — quantiles, total weight, and sample count — whether the
// Monte Carlo runs on 1 worker, 2 workers, or every core.
func TestFig5DeterministicAcrossWorkerCounts(t *testing.T) {
	p := DefaultFig5Params()
	p.CDF.Trun = 1e4 // budget is irrelevant to the contract; keep it quick
	run := func(workers int) Fig5Result {
		q := p
		q.CDF.Workers = workers
		res, err := Fig5(mc.Env{}, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(w)
		for j := range ref.CDFs {
			a, b := ref.CDFs[j], got.CDFs[j]
			if a.Samples != b.Samples {
				t.Fatalf("workers=%d %s: %d samples != %d", w, a.Scheme, b.Samples, a.Samples)
			}
			if math.Float64bits(a.CDF.TotalWeight()) != math.Float64bits(b.CDF.TotalWeight()) {
				t.Fatalf("workers=%d %s: total weight differs", w, a.Scheme)
			}
			ax, ap := a.CDF.Points()
			bx, bp := b.CDF.Points()
			if len(ax) != len(bx) {
				t.Fatalf("workers=%d %s: CDF length %d != %d", w, a.Scheme, len(bx), len(ax))
			}
			for i := range ax {
				if math.Float64bits(ax[i]) != math.Float64bits(bx[i]) ||
					math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
					t.Fatalf("workers=%d %s: CDF point %d differs", w, a.Scheme, i)
				}
			}
			for _, q := range p.YieldTargets {
				if math.Float64bits(a.MSEAtYield(q)) != math.Float64bits(b.MSEAtYield(q)) {
					t.Fatalf("workers=%d %s: MSE@yield %g differs", w, a.Scheme, q)
				}
			}
		}
	}
}

// TestEnergyStudyWorkerCountInvariance extends the contract to the
// voltage-scaling sweep: per-die qualification counts merge in shard
// order, so the minimum viable VDD per arm cannot depend on parallelism.
func TestEnergyStudyWorkerCountInvariance(t *testing.T) {
	p := DefaultEnergyParams()
	p.Dies = 80
	run := func(workers int) []EnergyRow {
		q := p
		q.Workers = workers
		rows, err := EnergyStudy(mc.Env{}, q)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(w)
		for i := range ref {
			same := ref[i].MinVDD == got[i].MinVDD ||
				(math.IsNaN(ref[i].MinVDD) && math.IsNaN(got[i].MinVDD))
			if !same {
				t.Fatalf("workers=%d arm %s: MinVDD %v != %v",
					w, ref[i].Name, got[i].MinVDD, ref[i].MinVDD)
			}
		}
	}
}

// TestFig7WorkerCountInvariance extends the contract to the
// application-quality Monte Carlo: one trial per shard, so the quality
// samples are identical for any worker count.
func TestFig7WorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 7 Monte Carlo is slow")
	}
	p := DefaultFig7Params(workload.KNN)
	p.Trials = 4
	run := func(workers int) qualityRun {
		q := p
		q.Workers = workers
		return fig7Run(t, q)
	}
	ref := run(1)
	got := run(runtime.GOMAXPROCS(0))
	for i := range ref.arms {
		for j := range ref.arms[i].Qualities {
			if ref.arms[i].Qualities[j] != got.arms[i].Qualities[j] {
				t.Fatalf("arm %v trial-order quality %d differs", ref.arms[i].Scheme, j)
			}
		}
	}
}
