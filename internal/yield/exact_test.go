package yield

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"faultmem/internal/core"
	"faultmem/internal/stats"
)

// exactMaxFaults is the largest failure count exactCDF enumerates.
const exactMaxFaults = 5

// exactMaxMean is the largest mean fault count per die exactCDF takes.
// Above it the counts past exactMaxFaults hold so much of the prior that
// the oracle's bound says little.
const exactMaxMean = 3.0

// exactDist is one arm's exact MSE distribution over the counts the
// oracle enumerates: the distinct MSE values ascending, and at each the
// prior mass of the dies whose MSE is at most it (not normalized).
type exactDist struct {
	xs, cum []float64
}

// F returns the prior mass of the enumerated dies whose MSE is at most x.
func (d exactDist) F(x float64) float64 {
	i := sort.SearchFloat64s(d.xs, math.Nextafter(x, math.Inf(1)))
	if i == 0 {
		return 0
	}
	return d.cum[i-1]
}

// total returns the prior mass of every enumerated die.
func (d exactDist) total() float64 {
	if len(d.cum) == 0 {
		return 0
	}
	return d.cum[len(d.cum)-1]
}

// exactOracle is exactCDF's answer: every arm's exact distribution of
// the die MSE of Eq. (6) under the Eq. (4) prior, for the failure counts
// 1..min(exactMaxFaults, swept maximum).
type exactOracle struct {
	arms []exactDist
	// p0 is Pr(N=0).
	p0 float64
	// dropped is the prior mass of the swept counts left out (above
	// exactMaxFaults): the oracle's error bound against an engine that
	// sweeps them. Like the engine, it leaves out the counts past the
	// swept maximum.
	dropped float64
}

// occupancy is one way n faults spread over a die's rows: parts[i] faults
// on its i-th faulty row (parts descending), and the probability of that
// spread when the n faults fall on n distinct cells drawn uniformly.
type occupancy struct {
	parts []int
	prob  float64
}

// binom returns C(n, k) as a float64.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	c := 1.0
	for i := range k {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// occupancies returns every spread of n faults over a rows x width die:
// the partitions of n into at most rows parts of at most width each. A
// spread of m faulty rows is taken by R!/(R-m)! ordered row choices,
// divided by the orders of its equal parts, times C(W, k) column sets per
// row of k faults, out of C(R*W, n) cell sets.
func occupancies(rows, width, n int) []occupancy {
	var out []occupancy
	var rec func(parts []int, left int)
	rec = func(parts []int, left int) {
		if left == 0 {
			ways := 1.0
			for i, k := range parts {
				ways *= float64(rows-i) * binom(width, k)
			}
			for i := 0; i < len(parts); {
				j := i
				for j < len(parts) && parts[j] == parts[i] {
					j++
				}
				for f := 2; f <= j-i; f++ {
					ways /= float64(f)
				}
				i = j
			}
			out = append(out, occupancy{append([]int(nil), parts...), ways / binom(rows*width, n)})
			return
		}
		if len(parts) == rows {
			return
		}
		hi := min(left, width)
		if len(parts) > 0 {
			hi = min(hi, parts[len(parts)-1])
		}
		for k := hi; k >= 1; k-- {
			rec(append(parts, k), left-k)
		}
	}
	rec(nil, n)
	return out
}

// rowCosts returns, for k = 1..top, the distribution of sch.RowMSE over
// the row masks of k faulty columns out of width, each equally likely.
func rowCosts(sch Scheme, width, top int) []map[float64]float64 {
	costs := make([]map[float64]float64, top+1)
	for k := 1; k <= min(top, width); k++ {
		d := map[float64]float64{}
		q := 1 / binom(width, k)
		// Gosper's hack walks the masks of k bits below 1<<width.
		for m := uint64(1)<<k - 1; m < uint64(1)<<width; {
			d[sch.RowMSE(m)] += q
			c := m & -m
			r := m + c
			m = ((r^m)>>2)/c | r
		}
		costs[k] = d
	}
	return costs
}

// exactCDF enumerates, for n = 1..min(5, swept maximum), every spread of
// n faults over the rows, convolves the row-cost distributions of each
// spread (map-based) and mixes them with the exact prior weights
// Pr(N=n). It refuses params whose mean fault count per die exceeds
// exactMaxMean, and words wider than 32 bits (it enumerates row masks).
func exactCDF(p CDFParams, schemes []Scheme) (exactOracle, error) {
	if err := p.Validate(); err != nil {
		return exactOracle{}, err
	}
	m := p.Cells()
	if mean := float64(m) * p.Pcell; mean > exactMaxMean {
		return exactOracle{}, fmt.Errorf("exact oracle: %.3g faults per die on average, want at most %g", mean, exactMaxMean)
	}
	if p.Width > 32 {
		return exactOracle{}, fmt.Errorf("exact oracle: Width = %d, want at most 32", p.Width)
	}
	_, _, nmax, err := p.plan()
	if err != nil {
		return exactOracle{}, err
	}
	top := min(nmax, exactMaxFaults)
	o := exactOracle{p0: stats.BinomialPMF(m, p.Pcell, 0)}
	for n := top + 1; n <= nmax; n++ {
		o.dropped += stats.BinomialPMF(m, p.Pcell, n)
	}
	weights := make([]float64, top+1)
	spreads := make([][]occupancy, top+1)
	for n := 1; n <= top; n++ {
		weights[n] = stats.BinomialPMF(m, p.Pcell, n)
		spreads[n] = occupancies(p.Rows, p.Width, n)
	}
	o.arms = make([]exactDist, len(schemes))
	var wg sync.WaitGroup
	for j, sch := range schemes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.arms[j] = exactArm(rowCosts(sch, p.Width, top), float64(p.Rows), weights, spreads)
		}()
	}
	wg.Wait()
	return o, nil
}

// exactArm mixes one arm's exact MSE distribution from its row costs
// (rowCosts) and every count's prior weight and spreads, counts 1 to
// len(weights)-1.
func exactArm(costs []map[float64]float64, rows float64, weights []float64, spreads [][]occupancy) exactDist {
	top := len(weights) - 1
	// sums[parts] is the distribution of a spread's summed row costs: its
	// largest parts' convolved with its smallest part's row costs. The
	// spreads of the top count are folded into the die distribution as
	// they are convolved, and never kept.
	sums := map[[exactMaxFaults]int]map[float64]float64{{}: {0: 1}}
	die := map[float64]float64{}
	for n := 1; n <= top; n++ {
		w := weights[n]
		for _, occ := range spreads[n] {
			var key, prefix [exactMaxFaults]int
			copy(key[:], occ.parts)
			copy(prefix[:], occ.parts[:len(occ.parts)-1])
			prev, last := sums[prefix], costs[occ.parts[len(occ.parts)-1]]
			if n == top {
				for s, q := range prev {
					for c, r := range last {
						die[(s+c)/rows] += w * occ.prob * q * r
					}
				}
				continue
			}
			conv := make(map[float64]float64, len(prev)*len(last))
			for s, q := range prev {
				for c, r := range last {
					conv[s+c] += q * r
				}
			}
			sums[key] = conv
			for s, q := range conv {
				die[s/rows] += w * occ.prob * q
			}
		}
	}
	d := exactDist{xs: make([]float64, 0, len(die))}
	for x, q := range die {
		if q > 0 {
			d.xs = append(d.xs, x)
		}
	}
	sort.Float64s(d.xs)
	d.cum = make([]float64, len(d.xs))
	run := 0.0
	for i, x := range d.xs {
		run += die[x]
		d.cum[i] = run
	}
	return d
}

// exactOf returns exactCDF(p, schemes), failing t on its error.
func exactOf(t *testing.T, p CDFParams, schemes []Scheme) exactOracle {
	t.Helper()
	o, err := exactCDF(p, schemes)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// fig5Oracle is exactCDF at the Fig. 5 array and prior, built once for
// every test that reads it (it takes over a second).
var fig5Oracle = sync.OnceValues(func() (exactOracle, error) {
	return exactCDF(DefaultCDFParams(), fig5Schemes())
})

// fig5Exact returns fig5Oracle's oracle, failing t on its error.
func fig5Exact(t *testing.T) exactOracle {
	t.Helper()
	o, err := fig5Oracle()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// mseTol is the relative difference allowed between an engine MSE and
// the oracle's: the two sum a die's row costs in different orders.
const mseTol = 1e-9

// dkwAlpha is the probability, over the dies drawn, that some sampled
// stratum's empirical CDF leaves its Dvoretzky–Kiefer–Wolfowitz band.
const dkwAlpha = 1e-6

// samplingBand returns the half-width, in prior mass, of the band that
// every arm's unnormalized Monte-Carlo CDF of r lies in around the exact
// one with probability 1 - dkwAlpha: the DKW bound sqrt(ln(2S/α)/(2k))
// of each of the S strata the engine sampled, k dies each, weighted by
// its prior mass and summed (a union bound). Which strata were sampled
// r.Samples tells: every count of the plan when it holds all of the
// plan's dies, else the counts of three or more faults, whose dies it
// must then hold.
func samplingBand(t *testing.T, p CDFParams, r CDFResult) float64 {
	t.Helper()
	plans, total, _, err := p.plan()
	if err != nil {
		t.Fatal(err)
	}
	first := 1
	if r.Samples != total {
		first = 3
	}
	var sampled []countPlan
	dies := 0
	for _, pl := range plans {
		if pl.n >= first {
			sampled = append(sampled, pl)
			dies += pl.k
		}
	}
	if dies != r.Samples {
		t.Fatalf("%s: %d Monte-Carlo dies, want the %d of the plan's counts from %d faults", r.Scheme, r.Samples, dies, first)
	}
	band := 0.0
	for _, pl := range sampled {
		band += pl.per * float64(pl.k) * math.Sqrt(math.Log(2*float64(len(sampled))/dkwAlpha)/(2*float64(pl.k)))
	}
	return band
}

// checkWithinBand fails unless the unnormalized Monte-Carlo CDF of r
// lies within band of the exact one e at every MSE of either support,
// up to mseTol in the MSE, and unless their total masses agree within
// band. It reports the largest deviation and where it lies.
func checkWithinBand(t *testing.T, what string, r CDFResult, e exactDist, band float64) {
	t.Helper()
	total := r.CDF.TotalWeight()
	if d := math.Abs(total - e.total()); d > band+1e-12 {
		t.Errorf("%s %s: total mass %.9g, exact %.9g, off by %.3g, band %.3g", what, r.Scheme, total, e.total(), d, band)
	}
	mcx, _ := r.CDF.Points()
	worst, at := 0.0, 0.0
	var mc, lo, hi float64
	for _, x := range append(append([]float64(nil), e.xs...), mcx...) {
		m := r.CDF.P(x) * total
		l, h := e.F(x*(1-mseTol)), e.F(x*(1+mseTol))
		if dev := max(l-m, m-h); dev > worst {
			worst, at, mc, lo, hi = dev, x, m, l, h
		}
	}
	if worst > band+1e-12 {
		t.Errorf("%s %s: at MSE %.9g the Monte-Carlo mass %.6g lies outside the exact [%.6g, %.6g] by %.3g, band %.3g",
			what, r.Scheme, at, mc, lo, hi, worst, band)
	}
}

// engineBand runs the engine at p and returns its results and the band
// they must lie in around the oracle o of p's array and prior: the
// sampling band plus the mass o dropped.
func engineBand(t *testing.T, p CDFParams, schemes []Scheme, o exactOracle) ([]CDFResult, float64) {
	t.Helper()
	rs := msecdfAll(t, p, schemes)
	band := samplingBand(t, p, rs[0]) + o.dropped
	for _, r := range rs {
		if r.Histogram {
			t.Fatalf("%s: histogram mode, want the exact store", r.Scheme)
		}
		if r.PZeroFailures != o.p0 {
			t.Fatalf("%s: Pr(N=0) %v, oracle %v", r.Scheme, r.PZeroFailures, o.p0)
		}
	}
	return rs, band
}

func TestExactOracleSpreadsSumToOne(t *testing.T) {
	// Every count's spreads are all the ways its faults can fall, so
	// their probabilities sum to 1: on the Fig. 5 array, a square one, a
	// single row (every fault on it) and a single column (one fault per
	// row).
	for _, g := range []struct{ rows, width int }{{4096, 32}, {8, 8}, {1, 8}, {16, 1}} {
		for n := 1; n <= min(exactMaxFaults, g.rows*g.width); n++ {
			sum := 0.0
			for _, occ := range occupancies(g.rows, g.width, n) {
				sum += occ.prob
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("%dx%d, %d faults: spreads sum to %.15g", g.rows, g.width, n, sum)
			}
		}
	}
	p := DefaultCDFParams()
	p.Pcell = 4 / float64(p.Cells())
	if _, err := exactCDF(p, fig5Schemes()); err == nil {
		t.Error("oracle took 4 faults per die on average")
	}
}

// smallArraySchemes are arms for an 8-bit word: every fault kept, SECDED,
// two shuffling configurations and a P-ECC that protects the top four
// bits.
func smallArraySchemes() []Scheme {
	return []Scheme{
		Unprotected{}, FullECC{}, PriorityECC{Protected: 28},
		NewShuffledConfig(core.Config{Width: 8, NFM: 1}), NewShuffledConfig(core.Config{Width: 8, NFM: 2}),
	}
}

func TestMonteCarloWithinExactBand(t *testing.T) {
	// Every arm's Monte-Carlo CDF, on the exact store at fixed seeds,
	// lies within the sampling band of the exact one on the union of
	// both supports: on an 8x8 array at about 1.3 faults per die, swept
	// to 5 faults so that the oracle drops nothing, where dies of three
	// or more faults, two faults on one row and duplicate cells drawn
	// all carry weight.
	p := CDFParams{Rows: 8, Width: 8, Pcell: 1.3 / 64, Trun: 4e6, MaxPerCount: 400_000, MaxFailures: 5, Accum: AccumExact}
	o := exactOf(t, p, smallArraySchemes())
	if o.dropped != 0 {
		t.Fatalf("oracle dropped %g of the swept mass", o.dropped)
	}
	for _, seed := range []int64{1, 2} {
		p.Seed = seed
		rs, band := engineBand(t, p, smallArraySchemes(), o)
		for j, r := range rs {
			checkWithinBand(t, fmt.Sprintf("8x8 seed %d", seed), r, o.arms[j], band)
		}
	}
}

func TestFig5WithinExactBand(t *testing.T) {
	// The same on the Fig. 5 array at the default budget, where the band
	// adds the mass of the swept counts above 5 faults.
	if testing.Short() {
		t.Skip("the Fig. 5 array's oracle takes seconds; skipped under -short")
	}
	o := fig5Exact(t)
	p := DefaultCDFParams()
	p.Accum = AccumExact
	for _, seed := range []int64{1, 7} {
		p.Seed = seed
		rs, band := engineBand(t, p, fig5Schemes(), o)
		for j, r := range rs {
			checkWithinBand(t, fmt.Sprintf("4096x32 seed %d", seed), r, o.arms[j], band)
		}
	}
}

// yieldAtMSE is YieldAtMSE of arm j's exact distribution.
func (o exactOracle) yieldAtMSE(j int, x float64) float64 { return o.p0 + o.arms[j].F(x) }

// mseAtYield returns the smallest MSE of arm j's exact distribution
// whose yield reaches q, as MSEAtYield defines it (0 when Pr(N=0) does,
// the largest MSE when nothing does).
func (o exactOracle) mseAtYield(j int, q float64) float64 {
	if q <= o.p0 {
		return 0
	}
	d := o.arms[j]
	i := sort.SearchFloat64s(d.cum, q-o.p0)
	return d.xs[min(i, len(d.xs)-1)]
}

func TestYieldQueriesMatchExactOracle(t *testing.T) {
	// At the Fig. 5 array and the default budget, the engine's yield at
	// an MSE target lies within the band of the exact yield, its MSE at
	// each yield target between the exact MSEs at the target minus and
	// plus the band, and its reduction factors between the ratios those
	// bounds allow. The paper's claim holds exactly: nFM=1 cuts the MSE
	// tolerated at every target at least 30-fold against no correction.
	if testing.Short() {
		t.Skip("the Fig. 5 array's oracle takes seconds; skipped under -short")
	}
	p := DefaultCDFParams()
	p.Accum = AccumExact
	schemes := fig5Schemes()
	o := fig5Exact(t)
	rs, band := engineBand(t, p, schemes, o)
	for j, r := range rs {
		for e := -4.0; e <= 8.0; e += 0.5 {
			x := math.Pow(10, e)
			got := r.YieldAtMSE(x)
			lo, hi := o.yieldAtMSE(j, x*(1-mseTol)), o.yieldAtMSE(j, x*(1+mseTol))
			if got < lo-band-1e-12 || got > hi+band+1e-12 {
				t.Errorf("%s: YieldAtMSE(%g) = %.6g, exact [%.6g, %.6g], band %.3g", r.Scheme, x, got, lo, hi, band)
			}
		}
	}
	bounds := func(j int, q float64) (lo, hi float64) {
		return o.mseAtYield(j, q-band) * (1 - mseTol), o.mseAtYield(j, q+band) * (1 + mseTol)
	}
	none, nfm1 := 0, 1
	for _, q := range []float64{0.8, 0.9, 0.99, 0.999} {
		for j, r := range rs {
			lo, hi := bounds(j, q)
			if got := r.MSEAtYield(q); got < lo || got > hi {
				t.Errorf("%s: MSEAtYield(%g) = %.6g, exact %.6g, band [%.6g, %.6g]", r.Scheme, q, got, o.mseAtYield(j, q), lo, hi)
			}
		}
		exact := o.mseAtYield(none, q) / o.mseAtYield(nfm1, q)
		if !(exact >= 30) {
			t.Errorf("exact reduction of nFM=1 at yield %g is %.3gx, the paper claims at least 30x", q, exact)
		}
		noneLo, noneHi := bounds(none, q)
		oneLo, oneHi := bounds(nfm1, q)
		if got := ReductionAtYield(rs[nfm1], rs[none], q); got < noneLo/oneHi || got > noneHi/oneLo || got < 30 {
			t.Errorf("reduction of nFM=1 at yield %g is %.6gx, exact %.6gx, band [%.6g, %.6g]", q, got, exact, noneLo/oneHi, noneHi/oneLo)
		}
	}
}
