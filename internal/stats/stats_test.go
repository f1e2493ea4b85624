package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogBinomialPMFSumsToOne(t *testing.T) {
	for _, c := range []struct {
		m int
		p float64
	}{
		{10, 0.3},
		{100, 0.01},
		{131072, 5e-6}, // 16 KB memory at the paper's Fig. 5 Pcell
	} {
		sum := 0.0
		for n := 0; n <= c.m && n <= 2000; n++ {
			sum += BinomialPMF(c.m, c.p, n)
			if sum > 1-1e-12 {
				break
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("m=%d p=%g: pmf sums to %.12f", c.m, c.p, sum)
		}
	}
}

func TestBinomialSmallCases(t *testing.T) {
	// Binomial(2, 0.5): 1/4, 1/2, 1/4.
	want := []float64{0.25, 0.5, 0.25}
	for n, w := range want {
		if got := BinomialPMF(2, 0.5, n); math.Abs(got-w) > 1e-12 {
			t.Errorf("Binomial(2,0.5,%d) = %g, want %g", n, got, w)
		}
	}
	if got := BinomialPMF(5, 0.2, -1); got != 0 {
		t.Errorf("pmf(-1) = %g", got)
	}
	if got := BinomialPMF(5, 0.2, 6); got != 0 {
		t.Errorf("pmf(n>m) = %g", got)
	}
}

func TestBinomialDegenerate(t *testing.T) {
	if got := BinomialPMF(10, 0, 0); got != 1 {
		t.Errorf("p=0, n=0: %g", got)
	}
	if got := BinomialPMF(10, 0, 1); got != 0 {
		t.Errorf("p=0, n=1: %g", got)
	}
	if got := BinomialPMF(10, 1, 10); got != 1 {
		t.Errorf("p=1, n=m: %g", got)
	}
}

// poissonPMF returns Pr(N = n) for a Poisson(lambda) variable, the
// standard rare-event limit of the binomial fault-count distribution.
func poissonPMF(lambda float64, n int) float64 {
	if n < 0 {
		return 0
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return math.Exp(float64(n)*math.Log(lambda) - lambda - lg)
}

func TestBinomialMatchesPoissonLimit(t *testing.T) {
	// For large m and tiny p, binomial ~ Poisson(mp).
	m, p := 131072, 1e-5
	lambda := float64(m) * p
	for n := 0; n <= 8; n++ {
		b := BinomialPMF(m, p, n)
		q := poissonPMF(lambda, n)
		if math.Abs(b-q) > 1e-4*math.Max(b, 1e-12) && math.Abs(b-q) > 1e-7 {
			t.Errorf("n=%d: binomial %g vs poisson %g", n, b, q)
		}
	}
}

func TestBinomialQuantile(t *testing.T) {
	// Median of Binomial(100, 0.5) is 50.
	if got := BinomialQuantile(100, 0.5, 0.5); got != 50 {
		t.Errorf("median = %d, want 50", got)
	}
	// q -> 1 must not exceed m.
	if got := BinomialQuantile(20, 0.3, 0.999999999); got > 20 {
		t.Errorf("quantile %d > m", got)
	}
	if got := BinomialQuantile(100, 0.01, 0); got != 0 {
		t.Errorf("q=0 should give 0, got %d", got)
	}
}

func TestSampleBinomialMoments(t *testing.T) {
	rng := NewRand(42)
	m, p := 131072, 1e-4 // mean ~13.1
	const trials = 4000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(SampleBinomial(rng, m, p))
	}
	mean := sum / trials
	want := float64(m) * p
	if math.Abs(mean-want) > 0.35 {
		t.Errorf("sample mean %.3f, want %.3f", mean, want)
	}
}

func TestSampleBinomialLargeMean(t *testing.T) {
	rng := NewRand(7)
	m, p := 10000, 0.3 // mean 3000
	const trials = 2000
	sum := 0.0
	for i := 0; i < trials; i++ {
		v := SampleBinomial(rng, m, p)
		if v < 0 || v > m {
			t.Fatalf("sample %d out of range", v)
		}
		sum += float64(v)
	}
	mean := sum / trials
	if math.Abs(mean-3000) > 10 {
		t.Errorf("sample mean %.1f, want ~3000", mean)
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6} {
		x := NormalQuantile(p, 0, 1)
		back := NormalCDF(x, 0, 1)
		if math.Abs(back-p) > 1e-9*math.Max(p, 1e-3) && math.Abs(back-p) > 1e-12 {
			t.Errorf("p=%g: quantile %g maps back to %g", p, x, back)
		}
	}
	// Location/scale handling.
	if x := NormalQuantile(0.5, 3, 2); math.Abs(x-3) > 1e-9 {
		t.Errorf("median of N(3,4) = %g", x)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	if got := NormalCDF(0, 0, 1); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("Phi(0) = %g", got)
	}
	if got := NormalCDF(1.959963984540054, 0, 1); math.Abs(got-0.975) > 1e-9 {
		t.Errorf("Phi(1.96) = %g", got)
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := NewRand(1)
	for _, c := range []struct{ n, k int }{{10, 10}, {100, 3}, {131072, 150}, {5, 0}} {
		got := SampleDistinct(rng, c.n, c.k)
		if len(got) != c.k {
			t.Fatalf("n=%d k=%d: got %d values", c.n, c.k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= c.n {
				t.Fatalf("value %d out of range [0,%d)", v, c.n)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctUniform(t *testing.T) {
	// Each element of [0,10) should appear ~equally often when drawing 5.
	rng := NewRand(99)
	counts := make([]int, 10)
	const trials = 6000
	for i := 0; i < trials; i++ {
		for _, v := range SampleDistinct(rng, 10, 5) {
			counts[v]++
		}
	}
	want := float64(trials) * 5 / 10
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.08*want {
			t.Errorf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	a := Derive(42, 0)
	b := Derive(42, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("derived streams coincide on %d/100 draws", same)
	}
	// Determinism.
	c := Derive(42, 0)
	d := Derive(42, 0)
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("Derive not deterministic")
		}
	}
}

func TestWeightedCDFBasic(t *testing.T) {
	var c WeightedCDF
	c.Add(1, 1)
	c.Add(2, 1)
	c.Add(3, 2)
	if got := c.P(0.5); got != 0 {
		t.Errorf("P(0.5) = %g", got)
	}
	if got := c.P(1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("P(1) = %g, want 0.25", got)
	}
	if got := c.P(2.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(2.5) = %g, want 0.5", got)
	}
	if got := c.P(3); math.Abs(got-1) > 1e-12 {
		t.Errorf("P(3) = %g, want 1", got)
	}
	if q := c.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5) = %g, want 2", q)
	}
	if q := c.Quantile(1.0); q != 3 {
		t.Errorf("Quantile(1) = %g, want 3", q)
	}
}

func TestWeightedCDFInterleavedAdd(t *testing.T) {
	var c WeightedCDF
	c.Add(5, 1)
	_ = c.P(5)  // force a sort
	c.Add(1, 1) // then add a smaller value
	if got := c.P(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(1) after interleaved add = %g", got)
	}
}

func TestWeightedCDFZeroWeightDropped(t *testing.T) {
	var c WeightedCDF
	c.Add(1, 0)
	if c.Len() != 0 || c.TotalWeight() != 0 {
		t.Error("zero-weight observation retained")
	}
}

func TestWeightedCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var c WeightedCDF
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			c.Add(x, float64(i%3)+0.5)
		}
		if c.Len() == 0 {
			return true
		}
		xs, ps := c.Points()
		for i := 1; i < len(xs); i++ {
			if xs[i] < xs[i-1] || ps[i] < ps[i-1] {
				return false
			}
		}
		return len(ps) == 0 || math.Abs(ps[len(ps)-1]-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("bad summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("std = %g", s.Std)
	}
	s = Summarize([]float64{1, 2})
	if s.Median != 1.5 {
		t.Errorf("even-length median = %g", s.Median)
	}
}

func TestMeanStdEmpty(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Error("empty-input conventions violated")
	}
}
