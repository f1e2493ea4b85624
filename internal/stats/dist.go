package stats

import (
	"math"
	"math/rand"
)

// LogBinomialPMF returns log Pr(N = n) for a Binomial(m, p) variable,
// computed in log space so that memory-scale m (e.g. 131072 cells) and
// tiny p (e.g. 5e-6) remain accurate. It returns -Inf for impossible n.
//
// This is Eq. (4) of the paper: Pr(N=n) = C(M,n) p^n (1-p)^(M-n).
func LogBinomialPMF(m int, p float64, n int) float64 {
	if n < 0 || n > m {
		return math.Inf(-1)
	}
	if p < 0 || p > 1 {
		panic("stats: probability out of [0,1]")
	}
	if p == 0 {
		if n == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p == 1 {
		if n == m {
			return 0
		}
		return math.Inf(-1)
	}
	lgM, _ := math.Lgamma(float64(m) + 1)
	lgN, _ := math.Lgamma(float64(n) + 1)
	lgMN, _ := math.Lgamma(float64(m-n) + 1)
	return lgM - lgN - lgMN + float64(n)*math.Log(p) + float64(m-n)*math.Log1p(-p)
}

// BinomialPMF returns Pr(N = n) for a Binomial(m, p) variable.
func BinomialPMF(m int, p float64, n int) float64 {
	return math.Exp(LogBinomialPMF(m, p, n))
}

// BinomialQuantile returns the smallest n such that Pr(N <= n) >= q for a
// Binomial(m, p) variable. The paper uses the 99th percentile of the
// failure count (Nmax, §5.2) to bound Monte-Carlo sweeps.
func BinomialQuantile(m int, p float64, q float64) int {
	if q <= 0 {
		return 0
	}
	if q > 1 {
		panic("stats: quantile level > 1")
	}
	cum := 0.0
	for n := 0; n <= m; n++ {
		cum += BinomialPMF(m, p, n)
		if cum >= q {
			return n
		}
	}
	return m
}

// SampleBinomial draws from Binomial(m, p) exactly, at any mean: it
// draws u = rng.Float64() and returns the n with F(n-1) <= u < F(n), F
// the Binomial(m, p) CDF (inversion). The search starts at the mode,
// whose pmf is one LogBinomialPMF, and walks the CDF from there with the
// pmf ratio p(n+1)/p(n) = (m-n)p / ((n+1)(1-p)), so a draw costs a few
// standard deviations of steps, not the mean.
func SampleBinomial(rng *rand.Rand, m int, p float64) int {
	if p <= 0 || m == 0 {
		return 0
	}
	if p >= 1 {
		return m
	}
	return newBinomialCDF(m, p).invert(rng.Float64())
}

// binomialCDF walks the Binomial(m, p) CDF one n at a time. At n it
// holds pmf = p(n), lo = F(n-1) and hi = F(n). A step up sets lo to the
// old hi and a step down sets hi to the old lo, so the intervals
// [lo, hi) the walk visits tile its range without gaps or overlaps,
// whatever the rounding.
type binomialCDF struct {
	m      int
	odds   float64 // p / (1-p)
	n      int
	pmf    float64
	lo, hi float64
}

// newBinomialCDF starts the walk at the mode. F(mode-1) is the pmf
// below the mode, summed outward until a term no longer counts: the
// terms there fall faster than geometrically, so the rest is far below
// the last one.
func newBinomialCDF(m int, p float64) binomialCDF {
	k := min(int(float64(m+1)*p), m)
	c := binomialCDF{m: m, odds: p / (1 - p), n: k, pmf: BinomialPMF(m, p, k)}
	t := c.pmf
	for j := k; j > 0; j-- {
		t *= float64(j) / (float64(m-j+1) * c.odds)
		c.lo += t
		if t <= c.lo*0x1p-64 {
			break
		}
	}
	c.hi = c.lo + c.pmf
	return c
}

// up moves the walk to n+1.
func (c *binomialCDF) up() {
	c.pmf *= float64(c.m-c.n) * c.odds / float64(c.n+1)
	c.n++
	c.lo = c.hi
	c.hi = c.lo + c.pmf
}

// down moves the walk to n-1.
func (c *binomialCDF) down() {
	c.pmf *= float64(c.n) / (float64(c.m-c.n+1) * c.odds)
	c.n--
	c.hi = c.lo
	c.lo = c.hi - c.pmf
}

// invert returns the n with lo <= u < hi. The walk stops early at 0, at
// m and where the pmf underflows to 0, so a u in a tail the rounded CDF
// cannot resolve (mass below 2^-53 near 1) maps to the last n reached.
func (c binomialCDF) invert(u float64) int {
	for u < c.lo && c.n > 0 {
		c.down()
	}
	for u >= c.hi && c.n < c.m && c.pmf > 0 {
		c.up()
	}
	return c.n
}

// NormalCDF returns Pr(X <= x) for X ~ N(mu, sigma^2).
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		panic("stats: sigma must be positive")
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// NormalQuantile returns the x such that NormalCDF(x, mu, sigma) = p,
// using the Acklam rational approximation refined by one Halley step.
func NormalQuantile(p, mu, sigma float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: quantile level must be in (0,1)")
	}
	z := acklam(p)
	// One Halley refinement against the exact CDF.
	e := 0.5*math.Erfc(-z/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(z*z/2)
	z = z - u/(1+z*u/2)
	return mu + sigma*z
}

// acklam implements Peter Acklam's inverse-normal approximation
// (relative error < 1.15e-9 over the full open interval).
func acklam(p float64) float64 {
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
