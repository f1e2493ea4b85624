package yield

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"faultmem/internal/core"
	"faultmem/internal/mat"
	"faultmem/internal/mc"
	"faultmem/internal/stats"
)

// fig5Schemes mirrors the seven arms of Fig. 5.
func fig5Schemes() []Scheme {
	return []Scheme{
		Unprotected{}, NewShuffled(1), NewShuffled(2), NewShuffled(3),
		NewShuffled(4), NewShuffled(5), PriorityECC{},
	}
}

// kernelPaths runs f once on each mat kernel path the process can take,
// as a subtest: "avx" when the CPU has AVX, then "go". A served or
// coordinated campaign merges shards from workers on either path, so the
// engine's output, and its freedom from allocation, must not depend on
// the path, whether or not a kernel on it is ever keyed to UseAVX.
func kernelPaths(t *testing.T, f func(*testing.T)) {
	saved := mat.UseAVX
	defer func() { mat.UseAVX = saved }()
	if saved {
		t.Run("avx", f)
	}
	mat.UseAVX = false
	t.Run("go", f)
}

// msecdfAll runs MSECDFAllEnv under the zero Env, whose context never
// cancels, so any error fails the test.
func msecdfAll(tb testing.TB, p CDFParams, schemes []Scheme) []CDFResult {
	tb.Helper()
	rs, err := MSECDFAllEnv(mc.Env{}, p, schemes)
	if err != nil {
		tb.Fatal(err)
	}
	return rs
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
		return msecdfAll(t, q, fig5Schemes())
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
	a := msecdfAll(t, p, fig5Schemes()[:1])[0]
	p.Shards = 7
	b1 := msecdfAll(t, p, fig5Schemes()[:1])[0]
	b2 := msecdfAll(t, p, fig5Schemes()[:1])[0]
	if a.Samples != b1.Samples {
		t.Fatal("shard count changed the sample plan")
	}
	if b1.MSEAtYield(0.9) != b2.MSEAtYield(0.9) {
		t.Fatal("fixed shard count not deterministic")
	}
}

func TestHotPathZeroAllocs(t *testing.T) {
	// Once a shard holds warm working memory from the campaign's pool,
	// scoring its dies must not allocate, in both accumulator modes and
	// on every kernel path: the engine's blocks of three or more faults
	// (sampler draws, all-arm row costs, batch adds), and the per-call
	// path the layer probes time (Draw, RowSampler.MSE, one Add per arm).
	// This is the regression gate for the allocation-free engine and its
	// histogram extension.
	schemes := fig5Schemes()
	const rounds = 200
	for _, mode := range []string{"exact", "hist"} {
		t.Run(mode, func(t *testing.T) {
			kernelPaths(t, func(t *testing.T) {
				testHotPathZeroAllocs(t, mode, schemes, rounds)
			})
		})
	}
}

func testHotPathZeroAllocs(t *testing.T, mode string, schemes []Scheme, rounds int) {
	accs := make(stats.Accumulators, len(schemes))
	for j := range accs {
		if mode == "hist" {
			accs[j] = stats.NewLogHistogram(0, -8, 20)
		} else {
			// The warm-up blocks and AllocsPerRun's own warm-up run
			// come before the rounds.
			c := &stats.WeightedCDF{}
			c.Reserve((rounds + 7) * (blockDies + 1))
			accs[j] = c
		}
	}
	pool := &scratchPool{rows: 4096, width: 32, arms: len(schemes)}
	run := shardRun{newArmCosts(schemes, 4096, 32), accs, pool.get()}
	rng := stats.NewRand(1)
	for n := 3; n <= 8; n++ {
		run.block(rng, n, blockDies, 1e-6)
	}
	n := 3
	avg := testing.AllocsPerRun(rounds, func() {
		run.block(rng, n, blockDies, 1e-6)
		n = n%6 + 3 // cycle the sampled failure counts 3..8
	})
	if avg != 0 {
		t.Fatalf("%s mode: a block of %d dies allocates %.1f times", mode, blockDies, avg)
	}
	avg = testing.AllocsPerRun(rounds, func() {
		pool.put(run.shardScratch)
		run.shardScratch = pool.get()
	})
	if avg != 0 {
		t.Fatalf("%s mode: returning and taking shard scratch allocates %.1f times", mode, avg)
	}

	sampler := run.sampler
	avg = testing.AllocsPerRun(rounds, func() {
		sampler.Draw(rng, n)
		for j, s := range schemes {
			accs[j].Add(sampler.MSE(s), 1e-6)
		}
		n = n%6 + 1
	})
	if avg != 0 {
		t.Fatalf("%s mode: per-die Draw, MSE and Add allocate %.1f times", mode, avg)
	}
}

// referenceAccumulators runs the die-at-a-time engine MSECDFAllEnv ran
// before it scored dies in blocks — per die RowSampler.Draw, then
// armCosts.mseAll, then one Add per arm — over the plan's counts of
// three or more faults, on the same mc shards and seeds, merges the
// shards in order into one accumulator per arm, and adds the exact
// strata to each, one Add per entry.
func referenceAccumulators(t *testing.T, p CDFParams, schemes []Scheme) []stats.Accumulator {
	t.Helper()
	plans, _, _, err := p.plan()
	if err != nil {
		t.Fatal(err)
	}
	var exact, sampled []countPlan
	total := 0
	for _, pl := range plans {
		if pl.n <= 2 {
			exact = append(exact, pl)
			continue
		}
		sampled = append(sampled, pl)
		total += pl.k
	}
	newAcc := func() stats.Accumulator {
		if p.Accum == AccumHist {
			return stats.NewLogHistogram(p.Bins, mseLogMin, mseLogMax)
		}
		return &stats.WeightedCDF{}
	}
	spans := mc.Split(total, p.Shards)
	costs := newArmCosts(schemes, p.Rows, p.Width)
	outs, err := mc.RunEnv(mc.Env{}, 1, len(spans), p.Seed, func(shard int, rng *rand.Rand) []stats.Accumulator {
		span := spans[shard]
		accs := make([]stats.Accumulator, len(schemes))
		for j := range accs {
			accs[j] = newAcc()
		}
		sampler := NewRowSampler(p.Rows, p.Width)
		mse := make([]float64, len(schemes))
		idx, off := 0, span.Start
		for idx < len(sampled) && off >= sampled[idx].k {
			off -= sampled[idx].k
			idx++
		}
		for g := span.Start; g < span.End; g++ {
			for off >= sampled[idx].k {
				off = 0
				idx++
			}
			sampler.Draw(rng, sampled[idx].n)
			costs.mseAll(sampler, mse)
			for j, acc := range accs {
				acc.Add(mse[j], sampled[idx].per)
			}
			off++
		}
		return accs
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]stats.Accumulator, len(schemes))
	for j := range merged {
		merged[j] = newAcc()
		for _, shard := range outs {
			merged[j].Merge(shard[j])
		}
		costs.addExact(oneAtATime{merged[j]}, j, exact)
	}
	return merged
}

// oneAtATime is an Accumulator whose AddBatch is one Add per
// observation.
type oneAtATime struct{ stats.Accumulator }

func (a oneAtATime) AddBatch(xs []float64, w float64) {
	for _, x := range xs {
		a.Add(x, w)
	}
}

// binaryForm is an accumulator's wire encoding: every bin, sum, count and
// extremum, or every observation and weight in insertion order.
func binaryForm(t *testing.T, a stats.Accumulator) []byte {
	t.Helper()
	b, err := stats.Accumulators{a}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBlockEngineMatchesDieAtATimeLoop(t *testing.T) {
	// Scoring dies in blocks must leave every arm's accumulator byte for
	// byte where the die-at-a-time loop over the dies of three or more
	// faults, plus the exact strata added one entry at a time, leaves
	// it: on the Fig. 5 geometry, an odd row count, a narrow and a
	// 64-bit word, and a 4x8 array where dies often redraw a duplicate
	// cell; in both accumulator modes; on every kernel path; and at
	// shard counts whose span edges cut blocks inside a count. A
	// MaxPerCount that caps several sampled counts moves the count edges
	// off the prior's own layout.
	kernelPaths(t, testBlockEngineMatchesDieAtATimeLoop)
}

func testBlockEngineMatchesDieAtATimeLoop(t *testing.T) {
	wide := append(fig5Schemes(), FullECC{}, PriorityECC{Protected: 8})
	geoms := []struct {
		rows, width int
		pcell, trun float64
		maxPer      int
		schemes     []Scheme
	}{
		{4096, 32, 5e-6, 5e5, 1000, wide},
		{37, 32, 2e-3, 2e5, 1500, wide},
		{16, 16, 1e-2, 2e5, 1200, []Scheme{Unprotected{}, FullECC{}, NewShuffledConfig(core.Config{Width: 16, NFM: 2})}},
		{8, 64, 5e-3, 2e5, 1200, []Scheme{Unprotected{}, FullECC{}, PriorityECC{}, NewShuffledConfig(core.Config{Width: 64, NFM: 3})}},
		{4, 8, 5e-2, 2e5, 1200, []Scheme{Unprotected{}, FullECC{}, NewShuffledConfig(core.Config{Width: 8, NFM: 1}), NewShuffledConfig(core.Config{Width: 8, NFM: 2})}},
	}
	for _, g := range geoms {
		for _, accum := range []AccumMode{AccumExact, AccumHist} {
			for _, shards := range []int{1, 3, 13} {
				p := CDFParams{
					Rows: g.rows, Width: g.width, Pcell: g.pcell, Trun: g.trun,
					MaxPerCount: g.maxPer, Seed: int64(g.rows + shards), Shards: shards, Accum: accum,
				}
				plans, _, _, err := p.plan()
				if err != nil {
					t.Fatal(err)
				}
				capped, sampled := 0, 0
				for _, pl := range plans {
					if pl.n >= 3 {
						sampled++
						if pl.k == g.maxPer {
							capped++
						}
					}
				}
				if capped < 2 || plans[0].n != 1 || sampled < 3 {
					t.Fatalf("%dx%d: plan %v does not cap several sampled counts", g.rows, g.width, plans)
				}
				want := referenceAccumulators(t, p, g.schemes)
				got := msecdfAll(t, p, g.schemes)
				for j, r := range got {
					if !bytes.Equal(binaryForm(t, r.CDF), binaryForm(t, want[j])) {
						t.Fatalf("%dx%d %v %d shards %s: block engine accumulator differs from the die-at-a-time loop's",
							g.rows, g.width, accum, shards, r.Scheme)
					}
				}
			}
		}
	}
}

// oddScheme is a Scheme of a type this package does not know, and not a
// comparable one.
type oddScheme struct {
	Unprotected
	tag []int
}

func TestCampaignCostsSharedOnlyWhenEqual(t *testing.T) {
	// Replays of one campaign share its costs; a change in the schemes or
	// the array builds new ones, and schemes of foreign types are never
	// shared.
	a := campaignCosts(fig5Schemes(), 64, 32)
	if b := campaignCosts(fig5Schemes(), 64, 32); b != a {
		t.Fatal("equal arguments built new costs")
	}
	for name, other := range map[string]func() *armCosts{
		"rows":    func() *armCosts { return campaignCosts(fig5Schemes(), 65, 32) },
		"width":   func() *armCosts { return campaignCosts(fig5Schemes(), 64, 16) },
		"schemes": func() *armCosts { return campaignCosts(fig5Schemes()[1:], 64, 32) },
	} {
		if other() == a {
			t.Fatalf("costs shared across a change of %s", name)
		}
	}
	odd := []Scheme{oddScheme{tag: []int{1}}}
	if campaignCosts(odd, 64, 32) == campaignCosts(odd, 64, 32) {
		t.Fatal("costs of a foreign scheme were shared")
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
		costs := newArmCosts(schemes, geom.rows, geom.width)
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
		return msecdfAll(t, q, fig5Schemes())
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
	exact := msecdfAll(t, pe, schemes)

	ph := p
	ph.Accum = AccumHist
	hist := msecdfAll(t, ph, schemes)

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
	results := msecdfAll(t, p, schemes)

	small := DefaultCDFParams()
	small.Trun = 1e5
	small.Accum = AccumHist
	smallRes := msecdfAll(t, small, schemes[:1])[0]
	smallHist := smallRes.CDF.(*stats.LogHistogram)

	for _, r := range results {
		if !r.Histogram {
			t.Fatalf("%s: auto mode did not select the histogram at Trun=1e7 (%d Monte-Carlo dies)",
				r.Scheme, r.Samples)
		}
		lh := r.CDF.(*stats.LogHistogram)
		if got, want := int(lh.Count()), r.Samples+exactEntries(p.Width); got != want {
			t.Fatalf("%s: histogram streamed %d observations, want %d Monte-Carlo dies and %d exact entries",
				r.Scheme, got, r.Samples, exactEntries(p.Width))
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
	r := msecdfAll(t, p, fig5Schemes()[:1])[0]
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
		_ = msecdfAll(b, p, schemes)
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
		_ = msecdfAll(b, p, schemes)
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
		_ = msecdfAll(b, p, schemes)
	}
}

func TestExactStrataEdgeCases(t *testing.T) {
	// The exact strata hold up at the edges of the plan and the array,
	// each within the band of the exact oracle: a sweep capped at one or
	// two faults leaves no Monte-Carlo die, so the exact CDF comes back
	// and no shard runs; a single row has no pair of faults on two rows
	// (its two-row weight is 0); a one-bit word has no pair on one row;
	// a single cell holds at most one fault; and Pcell 0 leaves an empty
	// CDF, every die fault-free.
	narrow := []Scheme{Unprotected{}, FullECC{}, PriorityECC{Protected: 31}}
	fig5 := DefaultCDFParams()
	fig5.Accum = AccumExact
	cases := []struct {
		name    string
		p       CDFParams
		schemes []Scheme
		mcDies  bool
	}{
		{"MaxFailures 1", func() CDFParams { p := fig5; p.MaxFailures = 1; return p }(), fig5Schemes(), false},
		{"MaxFailures 2", func() CDFParams { p := fig5; p.MaxFailures = 2; return p }(), fig5Schemes(), false},
		{"Rows 1", CDFParams{Rows: 1, Width: 8, Pcell: 0.15, Trun: 2e5, MaxPerCount: 50_000, Seed: 3}, smallArraySchemes(), true},
		{"Width 1", CDFParams{Rows: 16, Width: 1, Pcell: 0.08, Trun: 2e5, MaxPerCount: 50_000, Seed: 4}, narrow, true},
		{"1x1", CDFParams{Rows: 1, Width: 1, Pcell: 0.3, Trun: 2e5, Seed: 5}, narrow, false},
		{"Pcell 0", func() CDFParams { p := fig5; p.Pcell = 0; return p }(), fig5Schemes(), false},
	}
	for _, c := range cases {
		o := exactOf(t, c.p, c.schemes)
		shards := 0
		env := mc.Env{OnShard: func(int, int) { shards++ }}
		rs, err := MSECDFAllEnv(env, c.p, c.schemes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		plans, _, _, err := c.p.plan()
		if err != nil {
			t.Fatal(err)
		}
		// The exact store holds the dies and one entry per outcome of
		// the exact strata: W for one fault, W² for two on two rows when
		// there are two rows, W(W-1) for two on one row.
		exactMass, entries := 0.0, 0
		for _, pl := range plans {
			switch pl.n {
			case 1:
				exactMass += pl.w
				entries += c.p.Width
			case 2:
				exactMass += pl.w
				entries += c.p.Width * (c.p.Width - 1)
				if c.p.Rows > 1 {
					entries += c.p.Width * c.p.Width
				}
			}
		}
		band := samplingBand(t, c.p, rs[0]) + o.dropped
		for j, r := range rs {
			if r.ExactMass != exactMass {
				t.Errorf("%s %s: exact mass %v, want %v", c.name, r.Scheme, r.ExactMass, exactMass)
			}
			if n := r.CDF.(*stats.WeightedCDF).Len(); n != r.Samples+entries {
				t.Errorf("%s %s: %d observations, want %d dies and %d exact entries", c.name, r.Scheme, n, r.Samples, entries)
			}
			if (r.Samples > 0) != c.mcDies || (shards > 0) != c.mcDies {
				t.Errorf("%s %s: %d Monte-Carlo dies in %d shards", c.name, r.Scheme, r.Samples, shards)
			}
			checkWithinBand(t, c.name, r, o.arms[j], band)
		}
		if c.p.Pcell == 0 {
			for _, r := range rs {
				if r.CDF.TotalWeight() != 0 || r.YieldAtMSE(0) != 1 || r.MSEAtYield(1) != 0 {
					t.Errorf("Pcell 0 %s: mass %v, yield at MSE 0 %v, MSE at yield 1 %v",
						r.Scheme, r.CDF.TotalWeight(), r.YieldAtMSE(0), r.MSEAtYield(1))
				}
			}
		}
	}
}
