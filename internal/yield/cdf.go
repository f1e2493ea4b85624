package yield

import (
	"fmt"
	"math"
	"math/rand"

	"faultmem/internal/mc"
	"faultmem/internal/stats"
)

// AccumMode selects the statistics accumulator MSECDFAll builds its CDFs
// on.
type AccumMode int

const (
	// AccumAuto (the default) retains exact observations below
	// HistAutoSamples planned samples and switches to the O(1)-memory
	// log-histogram above — small budgets stay exact, paper-scale
	// budgets (Trun=1e7+) run in a flat memory envelope.
	AccumAuto AccumMode = iota
	// AccumExact forces the exact observation store (stats.WeightedCDF).
	AccumExact
	// AccumHist forces the log-histogram (stats.LogHistogram).
	AccumHist
)

// String returns the CLI spelling of the mode.
func (m AccumMode) String() string {
	switch m {
	case AccumAuto:
		return "auto"
	case AccumExact:
		return "exact"
	case AccumHist:
		return "hist"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseAccumMode maps a CLI name to the accumulator mode.
func ParseAccumMode(s string) (AccumMode, error) {
	switch s {
	case "auto", "":
		return AccumAuto, nil
	case "exact":
		return AccumExact, nil
	case "hist":
		return AccumHist, nil
	default:
		return 0, fmt.Errorf("yield: unknown accumulator mode %q (want auto|exact|hist)", s)
	}
}

// HistAutoSamples is the planned-sample count at which AccumAuto stops
// retaining exact observations and switches to the log-histogram. Below
// it the exact store's footprint is at most ~16 MB per arm; above it the
// histogram's fixed few-KB-per-arm footprint wins and its one-bin CDF
// resolution (~3% in MSE) is far below the Monte-Carlo noise.
const HistAutoSamples = 1 << 20

// The histogram's log10-MSE domain. The smallest positive MSE any 32-bit
// scheme can produce is 2^0/rows (~2.4e-4 at 4096 rows), so -8 leaves
// the underflow bin holding exactly the zero-MSE mass; 20 decades up
// covers the worst case of every high bit faulty across thousands of
// rows before the overflow bin takes over.
const (
	mseLogMin = -8
	mseLogMax = 20
)

// CDFParams configures the Fig. 5 Monte-Carlo experiment: the CDF of the
// memory MSE under the failure-count prior Pr(N = n) of Eq. (4).
type CDFParams struct {
	// Rows and Width define the memory (16 KB of 32-bit words: 4096 x 32).
	Rows, Width int
	// Pcell is the bit-cell failure probability (Fig. 5 uses 5e-6).
	Pcell float64
	// Trun scales how many Monte-Carlo samples each failure count
	// receives: samples(n) ~ Pr(N=n) * Trun (the paper uses 1e7; the
	// default harness uses a smaller value — the CDF shape converges far
	// earlier — and records the value used).
	Trun float64
	// MaxPerCount caps the samples of any single failure count so the
	// dominant counts cannot exhaust the budget (0 = no cap).
	MaxPerCount int
	// MaxFailures bounds the failure-count sweep; 0 selects the count
	// covering 99.99% of the prior mass, mirroring the paper's Nmax
	// convention (§5.2 uses the 99% point; Fig. 5 sweeps 1..150).
	MaxFailures int
	// Seed drives all randomness.
	Seed int64
	// Workers is the goroutine count of the Monte-Carlo engine
	// (0 = GOMAXPROCS). Results are bit-identical for every value.
	Workers int
	// Shards is the number of deterministic RNG streams the sample budget
	// is split into (0 = mc.DefaultShards). Changing it changes which
	// stream draws which sample — results are identical across worker
	// counts only at a fixed shard count.
	Shards int
	// Accum selects the CDF accumulator (exact store vs O(1)-memory
	// log-histogram); the AccumAuto zero value decides by budget.
	Accum AccumMode
	// Bins is the log-histogram interior bin count
	// (0 = stats.DefaultLogHistBins).
	Bins int
}

// DefaultCDFParams returns the Fig. 5 configuration with a laptop-scale
// sample budget.
func DefaultCDFParams() CDFParams {
	return CDFParams{
		Rows:        4096,
		Width:       32,
		Pcell:       5e-6,
		Trun:        2e5,
		MaxPerCount: 20000,
		Seed:        1,
	}
}

// Cells returns the bit-cell count M of the configured memory.
func (p CDFParams) Cells() int { return p.Rows * p.Width }

// maxCDFSamples bounds a campaign's planned sample count, far above any
// budget that finishes (Trun = 1e7 plans ~4.8M), so that no Trun can
// overflow the plan's integer arithmetic.
const maxCDFSamples = 1 << 40

// maxCDFRows bounds Rows. Every running shard holds a sampler with one
// 8-byte mask per row, so the row count sizes the campaign's memory; the
// cap (8 MiB per sampler) is 256 times the paper's 16 KB array, and it
// keeps Rows*Width far from overflowing.
const maxCDFRows = 1 << 20

// maxExactSamples bounds the planned sample count of a campaign on the
// exact store, which keeps 16 bytes per sample and arm, reserved up front
// in the shard stores and again in the merged one: 64 MiB per arm and
// copy at the cap, four times the budget at which AccumAuto already
// switches to the histogram. Larger budgets must use the histogram.
const maxExactSamples = 1 << 22

// Validate reports why p cannot drive the Fig. 5 engine. Every field it
// checks can arrive from a client (campaign params, a sweep submission),
// so a bad value must come back as an error rather than a panic inside a
// long-lived server. MSECDFAllEnv calls it first; campaigns that size
// other models from the same params call it before those, too.
func (p CDFParams) Validate() error {
	switch {
	case p.Rows <= 0 || p.Rows > maxCDFRows:
		return fmt.Errorf("yield: Rows = %d, want 1..%d", p.Rows, maxCDFRows)
	case p.Width < 1 || p.Width > 64:
		return fmt.Errorf("yield: Width = %d, want 1..64", p.Width)
	case !(p.Pcell >= 0 && p.Pcell <= 1):
		return fmt.Errorf("yield: Pcell = %g, want in [0, 1]", p.Pcell)
	case !(p.Trun > 0) || math.IsInf(p.Trun, 1):
		return fmt.Errorf("yield: Trun = %g, want finite and > 0", p.Trun)
	case p.MaxFailures < 0 || p.MaxFailures > p.Cells():
		return fmt.Errorf("yield: MaxFailures = %d, want 0..%d (the cell count)", p.MaxFailures, p.Cells())
	case p.Shards < 0:
		return fmt.Errorf("yield: Shards = %d, want >= 0", p.Shards)
	case p.Bins < 0 || p.Bins > stats.MaxLogHistBins:
		return fmt.Errorf("yield: Bins = %d, want 0..%d", p.Bins, stats.MaxLogHistBins)
	}
	return nil
}

// CDFResult is the outcome of one scheme's Monte-Carlo sweep.
type CDFResult struct {
	Scheme string
	// CDF is the distribution of the MSE conditioned on N >= 1 failures
	// (weights follow Pr(N=n), matching Eq. 5's sum from i=1). It is an
	// exact stats.WeightedCDF or an O(1)-memory stats.LogHistogram,
	// depending on the params' accumulator mode and budget.
	CDF stats.Accumulator
	// Histogram reports whether CDF is the log-histogram accumulator
	// rather than the exact observation store.
	Histogram bool
	// PZeroFailures is Pr(N=0), the prior mass of fault-free dies (whose
	// MSE is exactly 0).
	PZeroFailures float64
	// Samples is the number of Monte-Carlo memories evaluated.
	Samples int
	// MaxFailuresSwept is the largest failure count simulated.
	MaxFailuresSwept int
}

// countPlan is one failure count's slice of the sample budget.
type countPlan struct {
	n   int     // failure count
	k   int     // Monte-Carlo samples assigned to it
	per float64 // weight per sample: Pr(N=n)/k
}

// plan lays out the Eq. (4)/(5) sample budget: for every failure count
// n = 1..Nmax with positive prior mass, k(n) ~ Pr(N=n)*Trun samples of
// weight Pr(N=n)/k(n). The flat global sample order (count-major) is what
// the engine shards, so the layout is independent of workers and shards.
// A budget above maxCDFSamples is an error.
func (p CDFParams) plan() (plans []countPlan, total, nmax int, err error) {
	m := p.Cells()
	nmax = p.MaxFailures
	if nmax == 0 {
		nmax = stats.BinomialQuantile(m, p.Pcell, 0.9999)
		if nmax < 1 {
			nmax = 1
		}
	}
	for n := 1; n <= nmax; n++ {
		w := stats.BinomialPMF(m, p.Pcell, n)
		if !(w > 0) {
			continue
		}
		k := maxCDFSamples
		if kf := w*p.Trun + 0.5; kf < maxCDFSamples {
			k = int(kf)
		}
		if k < 1 {
			k = 1
		}
		if p.MaxPerCount > 0 && k > p.MaxPerCount {
			k = p.MaxPerCount
		}
		plans = append(plans, countPlan{n: n, k: k, per: w / float64(k)})
		total += k
		if total > maxCDFSamples {
			return nil, 0, 0, fmt.Errorf("yield: Trun = %g plans more than %d samples", p.Trun, maxCDFSamples)
		}
	}
	return plans, total, nmax, nil
}

// cancelPollMask gates how often the per-sample hot loop polls the run's
// done channel: every 4096 samples, cheap against the per-sample work yet
// prompt against any realistic budget (a shard holds thousands of samples).
const cancelPollMask = 1<<12 - 1

// MSECDFAll runs the Fig. 5 Monte Carlo for every scheme at once on the
// parallel engine, with common random numbers across the arms: each fault
// map is drawn once (per-row bitmasks, no allocations) and scored by all
// schemes, so fault-map generation is paid once instead of once per arm
// and between-arm comparisons such as ReductionAtYield see the same
// samples on both sides (variance reduction by positive correlation).
//
// The sample budget is split into p.Shards deterministic RNG streams
// executed by p.Workers goroutines; shard outputs merge in shard order,
// so every result is bit-identical for any worker count.
func MSECDFAll(p CDFParams, schemes []Scheme) []CDFResult {
	rs, err := MSECDFAllEnv(mc.Env{}, p, schemes)
	if err != nil {
		// The zero Env's background context never cancels, so only bad
		// params (which MSECDFAllEnv reports as errors) land here.
		panic(fmt.Sprintf("yield: background CDF run failed: %v", err))
	}
	return rs
}

// MSECDFAllEnv is MSECDFAll under an execution environment: identical
// samples and accumulators when the context stays live (the campaign is
// bit-identical to MSECDFAll for any worker count), ctx.Err() without
// results when it is cancelled or deadlined mid-flight. Cancellation is
// polled between shards by the engine and every few thousand samples
// inside each shard, so even single-shard budgets return promptly. The
// environment's OnShard callback sees each completed shard.
//
// Bad params, an exact-store budget above maxExactSamples, and shard
// results from env.Exec that do not hold one accumulator of the
// campaign's kind and geometry per scheme are reported as errors.
//
// Each die is scored under every scheme in one pass over its faulty rows
// (armCosts), with every MSE bit-identical to RowSampler.MSE.
func MSECDFAllEnv(env mc.Env, p CDFParams, schemes []Scheme) ([]CDFResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("yield: no schemes")
	}
	plans, total, nmax, err := p.plan()
	if err != nil {
		return nil, err
	}
	spans := mc.Split(total, p.Shards)
	cancel := env.Done()
	costs := newArmCosts(schemes, p.Width)

	// Accumulator factory: exact retention for small budgets (and as the
	// test oracle), the fixed-bin log-histogram above the auto threshold
	// or on request — O(bins) per shard regardless of the sample count.
	useHist := p.Accum == AccumHist || (p.Accum == AccumAuto && total >= HistAutoSamples)
	if !useHist && total > maxExactSamples {
		return nil, fmt.Errorf("yield: %d planned samples exceed the exact store's cap of %d; use the histogram accumulator",
			total, maxExactSamples)
	}
	newAcc := func(reserve int) stats.Accumulator {
		if useHist {
			return stats.NewLogHistogram(p.Bins, mseLogMin, mseLogMax)
		}
		c := &stats.WeightedCDF{}
		c.Reserve(reserve)
		return c
	}

	outs, err := mc.RunEnv(env, p.Workers, len(spans), p.Seed, func(shard int, rng *rand.Rand) []stats.Accumulator {
		span := spans[shard]
		accs := make([]stats.Accumulator, len(schemes))
		for j := range accs {
			accs[j] = newAcc(span.End - span.Start)
		}
		sampler := NewRowSampler(p.Rows, p.Width)
		mse := make([]float64, len(schemes))
		// Locate the span's first (count, sample) pair, then stream
		// through the count-major global order. Everything below Add is
		// allocation-free: the sampler reuses its masks, the arms' MSEs
		// land in one reused slice, and each accumulator is either
		// pre-reserved to the span size or fixed-size bins.
		idx, off := 0, span.Start
		for idx < len(plans) && off >= plans[idx].k {
			off -= plans[idx].k
			idx++
		}
		for g := span.Start; g < span.End; g++ {
			if g&cancelPollMask == 0 {
				select {
				case <-cancel:
					// Abandon the shard; the engine reports ctx.Err() and
					// the partial accumulators are discarded with it.
					return accs
				default:
				}
			}
			for off >= plans[idx].k {
				off = 0
				idx++
			}
			sampler.Draw(rng, plans[idx].n)
			costs.mseAll(sampler, mse)
			per := plans[idx].per
			for j, acc := range accs {
				acc.Add(mse[j], per)
			}
			off++
		}
		return accs
	})
	if err != nil {
		return nil, err
	}
	merged := make([]stats.Accumulator, len(schemes))
	for j := range merged {
		merged[j] = newAcc(total)
	}
	for i, shard := range outs {
		if err := checkShard(i, shard, merged); err != nil {
			return nil, err
		}
	}

	p0 := stats.BinomialPMF(p.Cells(), p.Pcell, 0)
	results := make([]CDFResult, len(schemes))
	for j, s := range schemes {
		for _, shard := range outs {
			merged[j].Merge(shard[j])
		}
		results[j] = CDFResult{
			Scheme:           s.Name(),
			CDF:              merged[j],
			Histogram:        useHist,
			PZeroFailures:    p0,
			Samples:          total,
			MaxFailuresSwept: nmax,
		}
	}
	return results, nil
}

// checkShard reports why shard i's accumulators cannot be merged into the
// campaign's merged ones, one per arm: an executor (possibly on another
// host) returned the wrong number of them, a nil, another kind, or a
// histogram of another geometry — each of which would otherwise panic
// inside the merge.
func checkShard(i int, accs, merged []stats.Accumulator) error {
	if len(accs) != len(merged) {
		return fmt.Errorf("yield: shard %d holds %d accumulators, want %d", i, len(accs), len(merged))
	}
	for j, a := range accs {
		ok := false
		switch w := merged[j].(type) {
		case *stats.LogHistogram:
			h, isHist := a.(*stats.LogHistogram)
			ok = isHist && h != nil && w.SameGeometry(h)
		case *stats.WeightedCDF:
			c, isCDF := a.(*stats.WeightedCDF)
			ok = isCDF && c != nil
		}
		if !ok {
			return fmt.Errorf("yield: shard %d arm %d holds a %T, want a %T of the campaign's geometry", i, j, a, merged[j])
		}
	}
	return nil
}

// MSECDF runs the Fig. 5 Monte Carlo for one scheme: for every failure
// count n = 1..Nmax, it draws samples(n) ~ Pr(N=n)*Trun random fault maps
// (Eq. 4 prior, uniform fault placement), computes the post-mitigation
// MSE of Eq. (6), and accumulates the weighted CDF of Eq. (5).
func MSECDF(p CDFParams, s Scheme) CDFResult {
	return MSECDFAll(p, []Scheme{s})[0]
}

// YieldAtMSE returns the quality-aware yield at a target MSE: the
// probability that a manufactured die satisfies MSE < target, including
// the fault-free mass Pr(N=0) (Eq. 5 evaluated as a yield criterion, §4).
func (r CDFResult) YieldAtMSE(target float64) float64 {
	p0 := r.PZeroFailures
	if r.CDF.TotalWeight() == 0 {
		return p0
	}
	// CDF is conditioned on N>=1 and its total weight approximates
	// Pr(N>=1); use the actual accumulated mass for consistency.
	return p0 + r.CDF.TotalWeight()*r.CDF.P(target)
}

// MSEAtYield returns the smallest MSE target that achieves the requested
// yield q (the x-axis reading of Fig. 5 at CDF level q). If the fault-free
// mass alone reaches q it returns 0.
func (r CDFResult) MSEAtYield(q float64) float64 {
	if q <= r.PZeroFailures {
		return 0
	}
	if r.CDF.TotalWeight() == 0 {
		panic("yield: empty CDF cannot reach requested yield")
	}
	cond := (q - r.PZeroFailures) / r.CDF.TotalWeight()
	if cond >= 1 {
		cond = 1
	}
	return r.CDF.Quantile(cond)
}

// ReductionAtYield returns the factor by which scheme a reduces the MSE
// that must be tolerated at yield level q compared with scheme b:
// MSE_b(q) / MSE_a(q). The paper reports a minimum 30x reduction for
// nFM=1 versus no protection (§4).
func ReductionAtYield(a, b CDFResult, q float64) float64 {
	ma := a.MSEAtYield(q)
	mb := b.MSEAtYield(q)
	if ma == 0 {
		if mb == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return mb / ma
}
