package stats

import (
	"fmt"
	"math"
	"testing"
)

// gTestPooled compares observed counts with expected counts (equal
// totals), merging adjacent cells from the low end up until each bin
// expects at least 5, and returns the G statistic, its degrees of
// freedom and the upper-tail p-value of chi-square by the
// Wilson–Hilferty approximation.
func gTestPooled(obs, exp []float64) (g float64, df int, p float64) {
	var bo, be []float64
	var o, e float64
	for i := range obs {
		o += obs[i]
		e += exp[i]
		if e >= 5 {
			bo, be = append(bo, o), append(be, e)
			o, e = 0, 0
		}
	}
	if len(bo) == 0 {
		return 0, 0, 1
	}
	bo[len(bo)-1] += o
	be[len(be)-1] += e
	for i := range bo {
		if bo[i] > 0 {
			g += 2 * bo[i] * math.Log(bo[i]/be[i])
		}
	}
	df = len(bo) - 1
	if df == 0 {
		return g, 0, 1
	}
	k := float64(df)
	z := (math.Cbrt(g/k) - (1 - 2/(9*k))) / math.Sqrt(2/(9*k))
	return g, df, 0.5 * math.Erfc(z/math.Sqrt2)
}

// binomialMeans are the means the sampler is pinned at, all over the
// 131072 cells of a 16 KB macro: below and at the old inversion cut
// (50), just past it (51), the quality campaigns' 4096 x 32 x 1e-3
// (131) and far up (1e4).
var binomialMeans = []float64{0.01, 5, 50, 51, 131.072, 1e4}

// TestSampleBinomialGTest draws at least 1e6 values (1e5 under -short)
// at each mean and compares their histogram with BinomialPMF.
func TestSampleBinomialGTest(t *testing.T) {
	const m = 131072
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for i, mean := range binomialMeans {
		p := mean / m
		rng := NewRand(int64(100 + i))
		counts := map[int]float64{}
		hi := 0
		for d := 0; d < draws; d++ {
			n := SampleBinomial(rng, m, p)
			counts[n]++
			hi = max(hi, n)
		}
		// Cells 0..hi, the last holding the upper tail beyond hi.
		obs := make([]float64, hi+1)
		exp := make([]float64, hi+1)
		cum := 0.0
		for n := 0; n <= hi; n++ {
			obs[n] = counts[n]
			pmf := BinomialPMF(m, p, n)
			exp[n] = float64(draws) * pmf
			cum += pmf
		}
		exp[hi] += float64(draws) * math.Max(0, 1-cum)
		g, df, pv := gTestPooled(obs, exp)
		t.Logf("mean %g: G = %.1f, df %d, p = %.4f", mean, g, df, pv)
		if pv < 1e-4 {
			t.Errorf("mean %g: draws do not follow Binomial(%d, %g): G = %.1f on %d df, p = %.2g", mean, m, p, g, df, pv)
		}
	}
}

// TestSampleBinomialInvertsCDF checks the inversion exactly: at every
// boundary F(n) of the CDF the walk defines, and one ulp either side,
// and on a grid of u, invert returns the n with F(n-1) <= u < F(n). It
// also checks that CDF against an independent sum of BinomialPMF. At
// mean 131 the walked boundaries reach past n = 230, deep in the upper
// tail a normal approximation gets wrong.
func TestSampleBinomialInvertsCDF(t *testing.T) {
	type cell struct {
		n      int
		lo, hi float64
	}
	for _, c := range []struct {
		m int
		p float64
	}{
		{131072, 1e-3}, {131072, 0.01 / 131072}, {131072, 5.0 / 131072}, {131072, 1e4 / 131072},
		{40, 0.3}, {7, 0.9}, {1, 0.5},
	} {
		name := fmt.Sprintf("m %d p %g", c.m, c.p)
		start := newBinomialCDF(c.m, c.p)
		// Every cell the walk can reach, in ascending n.
		var cells []cell
		for w := start; ; {
			cells = append([]cell{{w.n, w.lo, w.hi}}, cells...)
			if w.n == 0 || w.lo <= 0 {
				break
			}
			w.down()
		}
		for w := start; w.n < c.m && w.pmf > 0 && w.hi < 1; {
			w.up()
			cells = append(cells, cell{w.n, w.lo, w.hi})
		}
		// want mirrors the walk's stopping rules: the lowest cell takes
		// every u below it and the highest every u above it.
		want := func(u float64) int {
			for _, cl := range cells {
				if u < cl.hi {
					return cl.n
				}
			}
			return cells[len(cells)-1].n
		}
		check := func(u float64) {
			if got, w := start.invert(u), want(u); got != w {
				t.Fatalf("%s: invert(%v) = %d, want %d", name, u, got, w)
			}
		}
		for _, cl := range cells {
			if cl.lo >= cl.hi {
				continue
			}
			for _, u := range []float64{cl.lo, math.Nextafter(cl.lo, 0), cl.hi, math.Nextafter(cl.hi, 0)} {
				if u >= 0 && u < 1 {
					check(u)
				}
			}
			if got := start.invert(cl.lo); got != cl.n {
				t.Fatalf("%s: invert(F(%d-1) = %v) = %d", name, cl.n, cl.lo, got)
			}
			if got := start.invert(math.Nextafter(cl.hi, 0)); got != cl.n {
				t.Fatalf("%s: invert(F(%d) - 1ulp) = %d", name, cl.n, got)
			}
		}
		for i := 0; i < 4096; i++ {
			check(float64(i) / 4096)
		}
		// The walked CDF against an independent left-to-right sum.
		cum := 0.0
		for n := 0; n <= cells[len(cells)-1].n; n++ {
			cum += BinomialPMF(c.m, c.p, n)
			for _, cl := range cells {
				if cl.n == n && math.Abs(cl.hi-cum) > 1e-9 {
					t.Fatalf("%s: F(%d) walked %v, summed %v", name, n, cl.hi, cum)
				}
			}
		}
		if top := cells[len(cells)-1]; c.m == 131072 && c.p == 1e-3 && top.n <= 230 {
			t.Fatalf("%s: the walk stops at n = %d, short of the upper tail", name, top.n)
		}
	}
}

// BenchmarkSampleBinomial times one draw of the fault-count prior at
// means 5, 131 (the quality campaigns' dies) and 1e4, over 131072 cells.
func BenchmarkSampleBinomial(b *testing.B) {
	const m = 131072
	for _, mean := range []float64{5, 131.072, 1e4} {
		b.Run(fmt.Sprintf("mean=%g", mean), func(b *testing.B) {
			rng := NewRand(1)
			p := mean / m
			sum := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += SampleBinomial(rng, m, p)
			}
			sinkInt = sum
		})
	}
}

var sinkInt int
