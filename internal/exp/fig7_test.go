package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"faultmem/internal/fault"
	"faultmem/internal/mc"
	"faultmem/internal/memstore"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
)

// qualityRuns plans the named quality campaign (fig7, workloads or
// recovery) under r and runs its stages: the raw per-arm samples its
// tables are rendered from (for recovery, every policy's eight arms,
// the codeless ones borrowed from the first policy).
func qualityRuns(name string, r *Runner) ([]qualityRun, error) {
	var stages []qualityStage
	var err error
	switch name {
	case "fig7":
		_, stages, err = fig7Experiment{}.plan(r)
	case "workloads":
		_, stages, err = workloadsExperiment{}.plan(r)
	case "recovery":
		_, runs, err := recoveryExperiment{}.runs(context.Background(), r)
		return runs, err
	default:
		return nil, fmt.Errorf("%s is not a quality campaign", name)
	}
	if err != nil {
		return nil, err
	}
	return r.runQuality(context.Background(), name, "", stages)
}

// fig7Run runs one Fig. 7 benchmark through the quality engine.
func fig7Run(t testing.TB, p Fig7Params) qualityRun {
	t.Helper()
	runs, err := qualityRuns("fig7", &Runner{Params: []Fig7Params{p}})
	if err != nil {
		t.Fatalf("%v: %v", p.App, err)
	}
	return runs[0]
}

// prepareFig7 builds a Fig. 7 benchmark's instance: dataset, 0.8:0.2
// split, and the fault-free reference metric.
func prepareFig7(p Fig7Params) (workload.Instance, error) {
	return workload.PrepareShared(p.App, workload.Params{Seed: p.Seed, MadelonPaperSize: p.MadelonPaperSize})
}

// newFig7TestRunner builds the per-shard trial runner the Fig. 7 engine
// uses, for white-box perf tests.
func newFig7TestRunner(p Fig7Params, inst workload.Instance) *workload.TrialRunner {
	return workload.NewTrialRunner(inst, workload.Config{
		Name:  p.App.String(),
		Rows:  p.Rows,
		Pcell: p.Pcell,
		Arms:  workloadArms(Fig7Arms()),
	})
}

// TestQualityAtYieldQuantileConvention pins the ceil(level*n)-1
// empirical-quantile fix: the level-quantile is the smallest sample with
// Pr(quality <= q) >= level, matching stats.WeightedCDF.Quantile — not
// the sample one position above it.
func TestQualityAtYieldQuantileConvention(t *testing.T) {
	arm := QualityArm{Qualities: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}}
	cases := []struct {
		level, want float64
	}{
		{0.10, 0.1}, // the old int(level*n) indexing read 0.2 here
		{0.50, 0.5},
		{0.55, 0.6},
		{1.00, 1.0},
	}
	for _, c := range cases {
		if got := arm.QualityAtYield(c.level); got != c.want {
			t.Errorf("QualityAtYield(%g) = %g, want %g", c.level, got, c.want)
		}
	}

	// The 60-trial case from the bug report: q10 must be the 6th-smallest
	// sample (index 5), not the 7th.
	qs := make([]float64, 60)
	for i := range qs {
		qs[i] = float64(i + 1)
	}
	arm60 := QualityArm{Qualities: qs}
	if got := arm60.QualityAtYield(0.10); got != 6 {
		t.Errorf("q10 of 60 trials = sample %g, want 6 (index 5)", got)
	}

	// Cross-check the convention against stats.WeightedCDF on random
	// samples and levels.
	rng := rand.New(rand.NewSource(9))
	for rep := 0; rep < 20; rep++ {
		n := 1 + rng.Intn(40)
		sample := make([]float64, n)
		var cdf stats.WeightedCDF
		for i := range sample {
			sample[i] = rng.Float64()
			cdf.Add(sample[i], 1)
		}
		a := QualityArm{Qualities: append([]float64(nil), sample...)}
		sortFloats(a.Qualities)
		level := rng.Float64()
		if level == 0 {
			level = 0.5
		}
		if got, want := a.QualityAtYield(level), cdf.Quantile(level); got != want {
			t.Fatalf("n=%d level=%g: QualityAtYield %g != WeightedCDF.Quantile %g", n, level, got, want)
		}
	}
}

func sortFloats(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestCDFAtEmptyArm pins the 0/0 fix: an empty arm has no mass below any
// threshold, so CDFAt reports 0 instead of NaN (QualityAtYield keeps its
// panic-on-empty contract).
func TestCDFAtEmptyArm(t *testing.T) {
	var arm QualityArm
	if got := arm.CDFAt(0.5); got != 0 || math.IsNaN(got) {
		t.Errorf("CDFAt on empty arm = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("QualityAtYield on empty arm did not panic")
		}
	}()
	arm.QualityAtYield(0.5)
}

// TestFig7RejectsDuplicateApp: fig7 names each stage after its app, so
// a repeated app would open two engine runs under one tag, and a sweep
// worker replaying the second would capture the first's shards. The
// campaign refuses it, naming the app, before any engine run opens.
func TestFig7RejectsDuplicateApp(t *testing.T) {
	r := &Runner{
		Params: json.RawMessage(`[{"App":2,"Rows":4096,"Pcell":0.001,"Trials":8},{"App":2,"Rows":4096,"Pcell":0.0001,"Trials":8}]`),
		Exec: func(sj mc.ShardJob) (any, error) {
			t.Errorf("engine run %q opened", sj.Tag)
			return sj.Run(), nil
		},
	}
	_, err := Run(context.Background(), "fig7", r)
	if err == nil || !strings.Contains(err.Error(), `duplicate app "knn"`) {
		t.Fatalf("repeated app: err = %v, want a duplicate app \"knn\" error", err)
	}
}

// TestFig7TrialWarmAllocs pins the workspace payoff end to end: a warm
// Fig. 7 trial (fault map + 4 arms + round-trip + retrain + score) must
// run with ~10 allocations, down from several hundred before the
// reusable memories and ml fit workspaces (>90% fewer).
func TestFig7TrialWarmAllocs(t *testing.T) {
	p := DefaultFig7Params(workload.ElasticNet)
	w, err := prepareFig7(p)
	if err != nil {
		t.Fatal(err)
	}
	seedBase := stats.DeriveSeed(p.Seed, 1000)
	runner := newFig7TestRunner(p, w)
	var buf []float64
	for trial := 0; trial < 3; trial++ { // warm up every arm's scratch
		if buf, err = runner.RunTrial(seedBase, trial, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	trial := 3
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		buf, err = runner.RunTrial(seedBase, trial, buf[:0])
		if err != nil {
			t.Error(err)
		}
		trial++
	})
	if allocs > 40 {
		t.Errorf("warm Fig7 trial allocates %v times, want <= 40 (was ~680 before workspaces)", allocs)
	}
}

// benchFig7Trial measures ONE Monte-Carlo trial (fault map + all four
// protection arms + round-trip + model retrain + score), the unit the
// Trials budget scales by. warm=true runs the engine's actual per-shard
// path (workload.TrialRunner: reused memories, round-trip scratch, and
// ML fit workspaces); warm=false rebuilds the memories, the quantized
// word cache, and the fit buffers every trial — the pre-workspace
// behaviour — for the before/after allocation comparison.
func benchFig7Trial(b *testing.B, app workload.ID, warm bool) {
	p := DefaultFig7Params(app)
	w, err := prepareFig7(p)
	if err != nil {
		b.Fatal(err)
	}
	seedBase := stats.DeriveSeed(p.Seed, 1000)
	b.ReportAllocs()
	if warm {
		runner := newFig7TestRunner(p, w)
		var buf []float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = runner.RunTrial(seedBase, i, buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	cells := p.Rows * 32
	arms := Fig7Arms()
	sink := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := stats.Derive(seedBase, int64(i))
		n := 0
		for n == 0 {
			n = stats.SampleBinomial(rng, cells, p.Pcell)
		}
		fm := fault.GenerateCount(rng, p.Rows, 32, n, fault.Flip)
		for _, arm := range arms {
			m, err := arm.Build(p.Rows, fm)
			if err != nil {
				b.Fatal(err)
			}
			ws := workload.Workspace{Codec: memstore.DefaultCodec(), Mem: m}
			w.StoreOn(&ws)
			q, err := w.RunTrial(&ws, nil)
			if err != nil {
				b.Fatal(err)
			}
			sink += q
		}
	}
	_ = sink
}

// BenchmarkFig7Trial* pin the per-trial cost of the Fig. 7 engine with
// warm per-shard workspaces; the *Fresh variants rebuild memories and
// ml fit buffers per trial for comparison.
func BenchmarkFig7TrialElasticnet(b *testing.B) { benchFig7Trial(b, workload.ElasticNet, true) }
func BenchmarkFig7TrialPCA(b *testing.B)        { benchFig7Trial(b, workload.PCA, true) }
func BenchmarkFig7TrialKNN(b *testing.B)        { benchFig7Trial(b, workload.KNN, true) }

// BenchmarkFig7TrialPCAPaper runs the warm PCA trial at the paper's
// full 500-feature Madelon geometry — the workload whose O(d^3) Jacobi
// sweeps motivated the top-k subspace eigensolver.
func BenchmarkFig7TrialPCAPaper(b *testing.B) {
	p := DefaultFig7Params(workload.PCA)
	p.MadelonPaperSize = true
	w, err := prepareFig7(p)
	if err != nil {
		b.Fatal(err)
	}
	seedBase := stats.DeriveSeed(p.Seed, 1000)
	runner := newFig7TestRunner(p, w)
	var buf []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = runner.RunTrial(seedBase, i, buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7TrialElasticnetFresh(b *testing.B) { benchFig7Trial(b, workload.ElasticNet, false) }
func BenchmarkFig7TrialPCAFresh(b *testing.B)        { benchFig7Trial(b, workload.PCA, false) }
func BenchmarkFig7TrialKNNFresh(b *testing.B)        { benchFig7Trial(b, workload.KNN, false) }
