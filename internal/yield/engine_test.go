package yield

import (
	"math"
	"runtime"
	"testing"

	"faultmem/internal/core"
	"faultmem/internal/stats"
)

// fig5Schemes mirrors the seven arms of Fig. 5.
func fig5Schemes() []Scheme {
	return []Scheme{
		Unprotected{}, NewShuffled(1), NewShuffled(2), NewShuffled(3),
		NewShuffled(4), NewShuffled(5), PriorityECC{},
	}
}

func TestMSECDFAllWorkerCountInvariance(t *testing.T) {
	// The determinism contract: same seed => byte-identical CDFs for any
	// worker count. Compared via Float64bits so even a ULP of drift
	// (e.g. from a reordered merge) fails.
	p := DefaultCDFParams()
	p.Trun = 2e4
	run := func(workers int) []CDFResult {
		q := p
		q.Workers = workers
		return MSECDFAll(q, fig5Schemes())
	}
	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0), 13} {
		got := run(w)
		for j := range ref {
			a, b := ref[j], got[j]
			if a.Samples != b.Samples || a.MaxFailuresSwept != b.MaxFailuresSwept {
				t.Fatalf("workers=%d %s: sample counts differ", w, a.Scheme)
			}
			if a.CDF.TotalWeight() != b.CDF.TotalWeight() {
				t.Fatalf("workers=%d %s: total weight %v != %v",
					w, a.Scheme, a.CDF.TotalWeight(), b.CDF.TotalWeight())
			}
			ax, ap := a.CDF.Points()
			bx, bp := b.CDF.Points()
			if len(ax) != len(bx) {
				t.Fatalf("workers=%d %s: CDF sizes differ", w, a.Scheme)
			}
			for i := range ax {
				if math.Float64bits(ax[i]) != math.Float64bits(bx[i]) ||
					math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
					t.Fatalf("workers=%d %s: CDF point %d differs", w, a.Scheme, i)
				}
			}
			for _, q := range []float64{0.6, 0.9, 0.99, 0.999} {
				qa, qb := a.MSEAtYield(q), b.MSEAtYield(q)
				if math.Float64bits(qa) != math.Float64bits(qb) {
					t.Fatalf("workers=%d %s: quantile at %g differs: %v != %v",
						w, a.Scheme, q, qa, qb)
				}
			}
		}
	}
}

func TestMSECDFAllShardCountChangesStreamsOnly(t *testing.T) {
	// Shard count selects the stream layout: results legitimately differ
	// across shard counts but each must be internally deterministic and
	// carry the same sample plan.
	p := DefaultCDFParams()
	p.Trun = 1e4
	a := MSECDFAll(p, fig5Schemes()[:1])[0]
	p.Shards = 7
	b1 := MSECDFAll(p, fig5Schemes()[:1])[0]
	b2 := MSECDFAll(p, fig5Schemes()[:1])[0]
	if a.Samples != b1.Samples {
		t.Fatal("shard count changed the sample plan")
	}
	if b1.MSEAtYield(0.9) != b2.MSEAtYield(0.9) {
		t.Fatal("fixed shard count not deterministic")
	}
}

func TestHotPathZeroAllocs(t *testing.T) {
	// The per-sample hot path — fault-map draw, residual evaluation for
	// every Fig. 5 arm, accumulation — must not allocate, in both
	// accumulator modes. This is the regression gate for the
	// allocation-free engine rewrite and its histogram extension.
	schemes := fig5Schemes()
	const rounds = 200
	for _, mode := range []string{"exact", "hist"} {
		accs := make([]stats.Accumulator, len(schemes))
		for j := range accs {
			if mode == "hist" {
				accs[j] = stats.NewLogHistogram(0, -8, 20)
			} else {
				c := &stats.WeightedCDF{}
				c.Reserve(rounds + 1)
				accs[j] = c
			}
		}
		sampler := NewRowSampler(4096, 32)
		rng := stats.NewRand(1)
		n := 1
		avg := testing.AllocsPerRun(rounds, func() {
			sampler.Draw(rng, n)
			for j, s := range schemes {
				accs[j].Add(sampler.MSE(s), 1e-6)
			}
			n = n%6 + 1 // cycle realistic failure counts
		})
		if avg != 0 {
			t.Fatalf("%s mode: per-sample hot path allocates %.1f times", mode, avg)
		}

		// The engine's own path: all arms scored in one pass.
		costs := newArmCosts(schemes, 32)
		mse := make([]float64, len(schemes))
		avg = testing.AllocsPerRun(rounds, func() {
			sampler.Draw(rng, n)
			costs.mseAll(sampler, mse)
			for j, acc := range accs {
				acc.Add(mse[j], 1e-6)
			}
			n = n%6 + 1
		})
		if avg != 0 {
			t.Fatalf("%s mode: all-arm hot path allocates %.1f times", mode, avg)
		}
	}
}

func TestArmCostsMatchRowSamplerMSEBitwise(t *testing.T) {
	// mseAll is the engine's one-pass replacement for calling
	// RowSampler.MSE once per arm; every value must be the same bits, on
	// dies dense enough that many rows hold several faults, at
	// power-of-two and odd row counts and two word widths.
	wide := append(fig5Schemes(), FullECC{}, PriorityECC{Protected: 8})
	narrow := []Scheme{Unprotected{}, FullECC{}, NewShuffledConfig(core.Config{Width: 16, NFM: 2})}
	for _, geom := range []struct {
		rows, width int
		schemes     []Scheme
	}{{4096, 32, wide}, {64, 32, wide}, {37, 32, wide}, {16, 16, narrow}} {
		schemes := geom.schemes
		costs := newArmCosts(schemes, geom.width)
		sampler := NewRowSampler(geom.rows, geom.width)
		rng := stats.NewRand(int64(geom.rows))
		mse := make([]float64, len(schemes))
		multi := 0
		for die := 0; die < 2000; die++ {
			n := 1 + rng.Intn(4) // the common sparse case
			if die%2 == 1 {
				n = 1 + rng.Intn(min(3*geom.rows, 256))
			}
			sampler.Draw(rng, n)
			for _, r := range sampler.Rows() {
				if m := sampler.Mask(r); m&(m-1) != 0 {
					multi++
				}
			}
			costs.mseAll(sampler, mse)
			for j, s := range schemes {
				if want := sampler.MSE(s); math.Float64bits(mse[j]) != math.Float64bits(want) {
					t.Fatalf("%dx%d die %d (%d faults) %s: all-arm MSE %v, RowSampler.MSE %v",
						geom.rows, geom.width, die, n, s.Name(), mse[j], want)
				}
			}
		}
		if multi == 0 {
			t.Fatalf("%dx%d: no multi-fault rows exercised", geom.rows, geom.width)
		}
	}
}

func TestMSECDFAllHistWorkerCountInvariance(t *testing.T) {
	// The determinism contract holds in histogram mode too: shard
	// histograms merge bin-wise in shard order, so every query is
	// bit-identical for any worker count.
	p := DefaultCDFParams()
	p.Trun = 2e4
	p.Accum = AccumHist
	run := func(workers int) []CDFResult {
		q := p
		q.Workers = workers
		return MSECDFAll(q, fig5Schemes())
	}
	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0), 13} {
		got := run(w)
		for j := range ref {
			a, b := ref[j], got[j]
			if !a.Histogram || !b.Histogram {
				t.Fatalf("workers=%d %s: expected histogram mode", w, a.Scheme)
			}
			if math.Float64bits(a.CDF.TotalWeight()) != math.Float64bits(b.CDF.TotalWeight()) {
				t.Fatalf("workers=%d %s: total weight differs", w, a.Scheme)
			}
			ax, ap := a.CDF.Points()
			bx, bp := b.CDF.Points()
			if len(ax) != len(bx) {
				t.Fatalf("workers=%d %s: point counts differ", w, a.Scheme)
			}
			for i := range ax {
				if math.Float64bits(ax[i]) != math.Float64bits(bx[i]) ||
					math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
					t.Fatalf("workers=%d %s: point %d differs", w, a.Scheme, i)
				}
			}
			for _, q := range []float64{0.6, 0.9, 0.99, 0.999} {
				qa, qb := a.MSEAtYield(q), b.MSEAtYield(q)
				if math.Float64bits(qa) != math.Float64bits(qb) {
					t.Fatalf("workers=%d %s: quantile at %g differs: %v != %v",
						w, a.Scheme, q, qa, qb)
				}
			}
		}
	}
}

func TestHistogramAgreesWithExactOracle(t *testing.T) {
	// The exact WeightedCDF is the oracle: across every Fig. 5 arm the
	// histogram's CDF must agree within the straddling bin's mass at
	// each grid point, and its quantiles within one bin width in log
	// space.
	p := DefaultCDFParams()
	p.Trun = 2e4
	schemes := fig5Schemes()

	pe := p
	pe.Accum = AccumExact
	exact := MSECDFAll(pe, schemes)

	ph := p
	ph.Accum = AccumHist
	hist := MSECDFAll(ph, schemes)

	for j := range schemes {
		e, h := exact[j], hist[j]
		if e.Histogram || !h.Histogram {
			t.Fatal("mode selection wrong")
		}
		lh := h.CDF.(*stats.LogHistogram)
		width := lh.BinWidth()
		if math.Abs(e.CDF.TotalWeight()-h.CDF.TotalWeight()) > 1e-12 {
			t.Fatalf("%s: total weight %g vs %g", e.Scheme, h.CDF.TotalWeight(), e.CDF.TotalWeight())
		}
		for exp := -4.0; exp <= 8.0; exp += 0.5 {
			x := math.Pow(10, exp)
			binMass := h.CDF.P(x*math.Pow(10, width)) - h.CDF.P(x*math.Pow(10, -width))
			if diff := math.Abs(h.CDF.P(x) - e.CDF.P(x)); diff > binMass+1e-9 {
				t.Errorf("%s P(%g): hist %g vs exact %g (allowed %g)",
					e.Scheme, x, h.CDF.P(x), e.CDF.P(x), binMass)
			}
		}
		for _, q := range []float64{0.5, 0.8, 0.9, 0.99} {
			he, ee := h.MSEAtYield(q), e.MSEAtYield(q)
			if he == 0 && ee == 0 {
				continue
			}
			if he <= 0 || ee <= 0 {
				t.Errorf("%s MSE@%g: hist %g vs exact %g (one is zero)", e.Scheme, q, he, ee)
				continue
			}
			if math.Abs(math.Log10(he)-math.Log10(ee)) > width+1e-9 {
				t.Errorf("%s MSE@%g: hist %g vs exact %g (> one bin width)", e.Scheme, q, he, ee)
			}
		}
	}
}

func TestHistogramModeFlatMemoryAtPaperBudget(t *testing.T) {
	// The acceptance gate for the O(1)-memory path: a Trun=1e7 run must
	// not retain per-sample state — the accumulator's footprint is the
	// fixed bin array no matter how many samples stream through it.
	p := DefaultCDFParams()
	p.Trun = 1e7
	p.MaxPerCount = 0 // the paper's full per-count budget
	p.Accum = AccumAuto
	schemes := fig5Schemes()
	results := MSECDFAll(p, schemes)

	small := DefaultCDFParams()
	small.Trun = 1e5
	small.Accum = AccumHist
	smallRes := MSECDFAll(small, schemes[:1])[0]
	smallHist := smallRes.CDF.(*stats.LogHistogram)

	for _, r := range results {
		if !r.Histogram {
			t.Fatalf("%s: auto mode did not select the histogram at Trun=1e7 (%d samples)",
				r.Scheme, r.Samples)
		}
		lh := r.CDF.(*stats.LogHistogram)
		if got := int(lh.Count()); got != r.Samples {
			t.Fatalf("%s: histogram streamed %d of %d samples", r.Scheme, got, r.Samples)
		}
		// Retained state is bounded by the bin geometry, not the budget:
		// the 100x-larger run reports the same fixed capacity as the
		// small one.
		if lh.Bins() != smallHist.Bins() {
			t.Fatalf("%s: bin capacity scaled with the budget (%d vs %d)",
				r.Scheme, lh.Bins(), smallHist.Bins())
		}
		xs, _ := r.CDF.Points()
		if len(xs) > lh.Bins()+2 {
			t.Fatalf("%s: %d retained points exceed the %d-bin envelope",
				r.Scheme, len(xs), lh.Bins()+2)
		}
	}
}

func TestAccumAutoStaysExactBelowThreshold(t *testing.T) {
	p := DefaultCDFParams()
	p.Trun = 1e4
	r := MSECDFAll(p, fig5Schemes()[:1])[0]
	if r.Histogram {
		t.Fatalf("auto mode picked the histogram at %d samples", r.Samples)
	}
	if _, ok := r.CDF.(*stats.WeightedCDF); !ok {
		t.Fatalf("exact mode result is %T", r.CDF)
	}
}

// --- microbenchmarks of the engine datapaths (run with -benchmem) ---

func BenchmarkRowSamplerDraw(b *testing.B) {
	sampler := NewRowSampler(4096, 32)
	rng := stats.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sampler.Draw(rng, 4)
	}
}

func benchmarkRowMSE(b *testing.B, s Scheme) {
	sampler := NewRowSampler(4096, 32)
	rng := stats.NewRand(1)
	sampler.Draw(rng, 6)
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += sampler.MSE(s)
	}
	_ = acc
}

func BenchmarkRowMSEUnprotected(b *testing.B) { benchmarkRowMSE(b, Unprotected{}) }
func BenchmarkRowMSEShuffled1(b *testing.B)   { benchmarkRowMSE(b, NewShuffled(1)) }
func BenchmarkRowMSEShuffled5(b *testing.B)   { benchmarkRowMSE(b, NewShuffled(5)) }
func BenchmarkRowMSEPriorityECC(b *testing.B) {
	benchmarkRowMSE(b, PriorityECC{})
}

// BenchmarkMSECDFAllFig5 is the engine-level benchmark at the Fig. 5
// bench budget: all seven arms, one common-random-numbers pass.
func BenchmarkMSECDFAllFig5(b *testing.B) {
	p := DefaultCDFParams()
	p.Trun = 2e4
	schemes := fig5Schemes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MSECDFAll(p, schemes)
	}
}

// BenchmarkMSECDFAllFig5Hist is BenchmarkMSECDFAllFig5 on the
// log-histogram accumulator, the path paper-scale budgets take (the
// exact store is what Trun = 2e4 selects by default).
func BenchmarkMSECDFAllFig5Hist(b *testing.B) {
	p := DefaultCDFParams()
	p.Trun = 2e4
	p.Accum = AccumHist
	schemes := fig5Schemes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MSECDFAll(p, schemes)
	}
}

// BenchmarkMSECDFAllFig5Serial pins the engine to one worker, isolating
// the algorithmic (allocation-free + common-random-numbers) speedup from
// the parallel speedup.
func BenchmarkMSECDFAllFig5Serial(b *testing.B) {
	p := DefaultCDFParams()
	p.Trun = 2e4
	p.Workers = 1
	schemes := fig5Schemes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MSECDFAll(p, schemes)
	}
}
