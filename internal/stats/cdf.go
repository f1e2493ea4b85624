package stats

import (
	"fmt"
	"math"
	"sort"
)

// WeightedCDF is an empirical cumulative distribution built from weighted
// observations. The yield model uses it to combine Monte-Carlo samples
// whose weights come from the fault-count prior Pr(N = n) (Eq. 5).
//
// The zero value is empty; Add observations and then query. Queries sort
// lazily and are safe to interleave with further Adds.
type WeightedCDF struct {
	xs    []float64
	ws    []float64
	total float64
	// cum caches prefix sums of ws in sorted order (cum[i] = ws[0]+...+
	// ws[i]), rebuilt by sort(), so P and Quantile are a binary search
	// instead of an O(n) cumulative walk per query.
	cum    []float64
	sorted bool
}

// Add records an observation x with weight w (w must be non-negative and
// finite; zero-weight observations are dropped): AddBatch of one.
func (c *WeightedCDF) Add(x, w float64) { c.AddBatch([]float64{x}, w) }

// AddBatch records every x of xs with weight w, as the Accumulator
// contract defines: bit-identical to one Add per x, in order. It is the
// update rule of both: for each x in turn it appends x with weight w and
// adds w to the running total. At the first NaN it stores what the
// earlier xs added and panics; a zero w appends nothing but still panics
// there.
func (c *WeightedCDF) AddBatch(xs []float64, w float64) {
	checkWeight(w)
	total := c.total
	n := len(c.xs)
	nan := false
	for _, x := range xs {
		if x != x {
			nan = true
			break
		}
		if w == 0 {
			continue
		}
		c.xs = append(c.xs, x)
		c.ws = append(c.ws, w)
		total += w
	}
	if len(c.xs) != n {
		c.total = total
		c.sorted = false
	}
	if nan {
		panic("stats: NaN CDF observation")
	}
}

// Reserve pre-allocates capacity for n additional observations, so that
// the adds that follow perform no further allocations (the Monte-Carlo
// engine's shard accumulators rely on this for their allocation-free
// blocks).
func (c *WeightedCDF) Reserve(n int) {
	if n <= 0 {
		return
	}
	if free := cap(c.xs) - len(c.xs); free < n {
		xs := make([]float64, len(c.xs), len(c.xs)+n)
		copy(xs, c.xs)
		c.xs = xs
		ws := make([]float64, len(c.ws), len(c.ws)+n)
		copy(ws, c.ws)
		c.ws = ws
	}
}

// Merge appends every observation of o (which must be a *WeightedCDF) to
// c in o's insertion order. The Monte-Carlo engine merges per-shard CDFs
// in shard order, which keeps the combined observation sequence — and
// therefore every query — independent of how many workers produced the
// shards.
func (c *WeightedCDF) Merge(o Accumulator) {
	if o == nil {
		return
	}
	oc, ok := o.(*WeightedCDF)
	if !ok {
		panic(fmt.Sprintf("stats: cannot merge %T into *WeightedCDF", o))
	}
	if oc == nil || len(oc.xs) == 0 {
		return
	}
	c.Reserve(len(oc.xs))
	c.xs = append(c.xs, oc.xs...)
	c.ws = append(c.ws, oc.ws...)
	c.total += oc.total
	c.sorted = false
}

// Len returns the number of retained observations.
func (c *WeightedCDF) Len() int { return len(c.xs) }

// TotalWeight returns the sum of all observation weights.
func (c *WeightedCDF) TotalWeight() float64 { return c.total }

func (c *WeightedCDF) sort() {
	if c.sorted {
		return
	}
	idx := make([]int, len(c.xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return c.xs[idx[i]] < c.xs[idx[j]] })
	xs := make([]float64, len(c.xs))
	ws := make([]float64, len(c.ws))
	for k, i := range idx {
		xs[k] = c.xs[i]
		ws[k] = c.ws[i]
	}
	c.xs, c.ws = xs, ws
	if cap(c.cum) < len(ws) {
		c.cum = make([]float64, len(ws))
	}
	c.cum = c.cum[:len(ws)]
	run := 0.0
	for i, w := range ws {
		run += w
		c.cum[i] = run
	}
	c.sorted = true
}

// P returns the empirical Pr(X <= x). An empty CDF returns 0.
func (c *WeightedCDF) P(x float64) float64 {
	if c.total == 0 {
		return 0
	}
	c.sort()
	// Find the first index with xs[i] > x; cum[i-1] is the mass at or
	// below x.
	i := sort.Search(len(c.xs), func(i int) bool { return c.xs[i] > x })
	if i == 0 {
		return 0
	}
	return c.cum[i-1] / c.total
}

// Quantile returns the smallest observed x with Pr(X <= x) >= q.
// It panics on an empty CDF or q outside (0, 1].
func (c *WeightedCDF) Quantile(q float64) float64 {
	if c.total == 0 {
		panic("stats: quantile of empty CDF")
	}
	if q <= 0 || q > 1 {
		panic("stats: quantile level out of (0,1]")
	}
	c.sort()
	// cum is non-decreasing: binary-search the first prefix sum reaching
	// the target (same tolerance the former linear walk used).
	target := q*c.total - 1e-12*c.total
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] >= target })
	if i == len(c.cum) {
		i = len(c.cum) - 1
	}
	return c.xs[i]
}

// Points returns the CDF evaluated at each distinct observation, as
// parallel slices (x ascending, cumulative probability). Useful for
// plotting/rendering the paper's CDF figures.
func (c *WeightedCDF) Points() (xs, ps []float64) {
	if c.total == 0 {
		return nil, nil
	}
	c.sort()
	for i := 0; i < len(c.xs); i++ {
		if i+1 < len(c.xs) && c.xs[i+1] == c.xs[i] {
			continue
		}
		xs = append(xs, c.xs[i])
		ps = append(ps, c.cum[i]/c.total)
	}
	return xs, ps
}

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
}

// Summarize computes descriptive statistics of xs. It panics on an empty
// input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = 0.5 * (sorted[mid-1] + sorted[mid])
	}
	return s
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for n < 2).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}
