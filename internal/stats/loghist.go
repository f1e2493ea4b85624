package stats

import (
	"fmt"
	"math"
	"sort"
)

// DefaultLogHistBins is the interior bin count callers get when they pass
// 0. At the yield model's 28-decade MSE domain it gives ~73 bins per
// decade (~3% relative resolution), far below the Monte-Carlo noise of
// any realistic budget.
const DefaultLogHistBins = 2048

// MaxLogHistBins caps the interior bin count. The count can arrive from
// outside the process (campaign parameters, wire encodings) and sizes
// every shard histogram and the shared bin table, so larger values are
// rejected rather than allocated.
const MaxLogHistBins = 1 << 16

// LogHistogram is a fixed-bin log10-domain histogram of weighted
// observations: the O(1)-memory Accumulator for paper-scale Monte-Carlo
// budgets. The domain [10^logMin, 10^logMax) is divided into bins equal
// bins in log space; observations below the domain (including x <= 0)
// land in an underflow bin, observations at or above 10^logMax in an
// overflow bin. Running total weight, count, weighted moments, and the
// exact observed min/max ride along, so queries can answer exactly at
// the support's edges.
//
// Two histograms of identical geometry Merge by bin-wise addition — a
// small fixed-size operation, which is what makes shard outputs cheap to
// combine (and, later, to stream between hosts). Merging in shard order
// keeps results bit-identical for any worker count, exactly like
// WeightedCDF.
type LogHistogram struct {
	logMin, logMax float64
	nbins          int
	scale          float64 // nbins / (logMax - logMin)
	// w holds nbins+2 weights: w[0] underflow, w[1..nbins] interior,
	// w[nbins+1] overflow.
	w []float64
	// cum lazily caches prefix sums of w for binary-searched queries.
	cum   []float64
	dirty bool
	// tab is the geometry's shared bin table, fetched on the first Add or
	// P (never on decode, so shipped shard histograms stay table-free).
	tab *binTable

	total       float64
	count       int64
	sumX, sumXX float64
	min, max    float64
}

// NewLogHistogram returns an empty histogram with the given interior bin
// count over the log10 domain [logMin, logMax). bins <= 0 selects
// DefaultLogHistBins; more than MaxLogHistBins panics.
func NewLogHistogram(bins int, logMin, logMax float64) *LogHistogram {
	if bins <= 0 {
		bins = DefaultLogHistBins
	}
	if bins > MaxLogHistBins {
		panic(fmt.Sprintf("stats: %d histogram bins exceed the cap of %d", bins, MaxLogHistBins))
	}
	if !validLogDomain(logMin, logMax) {
		panic(fmt.Sprintf("stats: bad histogram domain [%g, %g)", logMin, logMax))
	}
	return &LogHistogram{
		logMin: logMin,
		logMax: logMax,
		nbins:  bins,
		scale:  float64(bins) / (logMax - logMin),
		w:      make([]float64, bins+2),
		dirty:  true,
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Bins returns the interior bin count.
func (h *LogHistogram) Bins() int { return h.nbins }

// BinWidth returns one bin's width in log10 decades — the resolution
// bound of every quantile the histogram reports.
func (h *LogHistogram) BinWidth() float64 { return 1 / h.scale }

// Count returns the number of (non-zero-weight) observations added.
func (h *LogHistogram) Count() int64 { return h.count }

// TotalWeight returns the sum of all observation weights.
func (h *LogHistogram) TotalWeight() float64 { return h.total }

// Mean returns the weighted mean observation (0 when empty).
func (h *LogHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sumX / h.total
}

// Min returns the smallest observation added; it panics when empty.
func (h *LogHistogram) Min() float64 {
	if h.total == 0 {
		panic("stats: Min of empty histogram")
	}
	return h.min
}

// Max returns the largest observation added; it panics when empty.
func (h *LogHistogram) Max() float64 {
	if h.total == 0 {
		panic("stats: Max of empty histogram")
	}
	return h.max
}

// validLogDomain reports whether [logMin, logMax) is a usable log10
// domain: both ends finite and logMax above logMin.
func validLogDomain(logMin, logMax float64) bool {
	return logMax > logMin && !math.IsInf(logMin, 0) && !math.IsInf(logMax, 0)
}

// SameGeometry reports whether o has h's bin count and domain, the
// condition for Merge.
func (h *LogHistogram) SameGeometry(o *LogHistogram) bool {
	return o.geometry() == h.geometry()
}

// geometry returns h's bin count and domain.
func (h *LogHistogram) geometry() binGeometry {
	return binGeometry{h.nbins, h.logMin, h.logMax}
}

// bucket maps an observation to its bin index in w: the bin bucketLog10
// defines, read from the geometry's shared threshold table.
func (h *LogHistogram) bucket(x float64) int {
	if x <= 0 {
		return 0
	}
	return h.table().bin(x)
}

// table returns the geometry's shared bin table, attaching it on first
// use.
func (h *LogHistogram) table() *binTable {
	if h.tab == nil {
		h.tab = sharedBinTable(h)
	}
	return h.tab
}

// bucketLog10 is the definition of the binning: x's log10 position in the
// domain, truncated to a bin. bucket answers the same from a table; this
// formula builds the table and is its test oracle.
func (h *LogHistogram) bucketLog10(x float64) int {
	if x <= 0 {
		return 0
	}
	lx := math.Log10(x)
	if lx < h.logMin {
		return 0
	}
	if lx >= h.logMax {
		return h.nbins + 1
	}
	b := int((lx-h.logMin)*h.scale) + 1
	if b > h.nbins { // guard float rounding at the top edge
		b = h.nbins
	}
	return b
}

// Add records an observation x with weight w: AddBatch of one. The
// weight rules match WeightedCDF: w must be non-negative and finite,
// zero-weight observations are dropped, NaN observations panic.
// Observations at or below zero land in the underflow bin (the MSE
// domain's exact-zero mass).
func (h *LogHistogram) Add(x, w float64) { h.AddBatch([]float64{x}, w) }

// AddBatch records every x of xs with weight w, as the Accumulator
// contract defines: bit-identical to one Add per x, in order. It is the
// update rule of both: for each x in turn it adds w to x's bin and folds
// x into the running total, count, moments and extrema, which it keeps
// in locals until the run ends. At the first NaN it stores what the
// earlier xs added and panics; a zero w adds nothing but still panics
// there.
func (h *LogHistogram) AddBatch(xs []float64, w float64) {
	checkWeight(w)
	tab := h.table()
	wts := h.w
	total, count := h.total, h.count
	sumX, sumXX := h.sumX, h.sumXX
	lo, hi := h.min, h.max
	nan := false
	for _, x := range xs {
		// bucket, spelled out: this is the hot path of every batch add,
		// and bucket is too large to inline.
		b := 0
		if x > 0 {
			b = tab.bin(x)
		} else if x != x {
			nan = true
			break
		}
		if w == 0 {
			continue
		}
		wts[b] += w
		total += w
		count++
		sumX += w * x
		sumXX += w * x * x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if count != h.count {
		h.total, h.count = total, count
		h.sumX, h.sumXX = sumX, sumXX
		h.min, h.max = lo, hi
		h.dirty = true
	}
	if nan {
		panic("stats: NaN histogram observation")
	}
}

// Merge folds o (which must be a *LogHistogram of identical geometry)
// into h by bin-wise addition.
func (h *LogHistogram) Merge(o Accumulator) {
	if o == nil {
		return
	}
	oh, ok := o.(*LogHistogram)
	if !ok {
		panic(fmt.Sprintf("stats: cannot merge %T into *LogHistogram", o))
	}
	if oh == nil || oh.count == 0 {
		return
	}
	if !h.SameGeometry(oh) {
		panic(fmt.Sprintf("stats: histogram geometry mismatch: %d@[%g,%g) vs %d@[%g,%g)",
			h.nbins, h.logMin, h.logMax, oh.nbins, oh.logMin, oh.logMax))
	}
	for i, wi := range oh.w {
		h.w[i] += wi
	}
	h.total += oh.total
	h.count += oh.count
	h.sumX += oh.sumX
	h.sumXX += oh.sumXX
	if oh.min < h.min {
		h.min = oh.min
	}
	if oh.max > h.max {
		h.max = oh.max
	}
	h.dirty = true
}

// prefix rebuilds the cached prefix sums if any Add or Merge invalidated
// them.
func (h *LogHistogram) prefix() {
	if !h.dirty {
		return
	}
	if cap(h.cum) < len(h.w) {
		h.cum = make([]float64, len(h.w))
	}
	h.cum = h.cum[:len(h.w)]
	run := 0.0
	for i, wi := range h.w {
		run += wi
		h.cum[i] = run
	}
	h.dirty = false
}

// edge returns the lower log10 edge of interior bin b (1-based).
func (h *LogHistogram) edge(b int) float64 {
	return h.logMin + float64(b-1)/h.scale
}

// P returns Pr(X <= x), interpolating linearly in log space within the
// bin straddling x, so the reported CDF never deviates from the exact
// empirical CDF by more than that single bin's mass. Outside the
// observed support it answers exactly (0 below min, 1 at or above max).
func (h *LogHistogram) P(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	if x < h.min {
		return 0
	}
	if x >= h.max {
		return 1
	}
	h.prefix()
	b := h.bucket(x)
	cumBelow := 0.0
	if b > 0 {
		cumBelow = h.cum[b-1]
	}
	mass := h.w[b]
	p := 0.0
	if b == 0 || b == h.nbins+1 {
		// Underflow/overflow have no interior geometry: attribute the
		// bin's full mass at or below x.
		p = (cumBelow + mass) / h.total
	} else {
		frac := (math.Log10(x) - h.edge(b)) * h.scale
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		p = (cumBelow + frac*mass) / h.total
	}
	if p > 1 {
		p = 1
	}
	return p
}

// Quantile returns an x with Pr(X <= x) >= q, interpolated in log space
// within the bin the target mass falls in — within one bin width of the
// exact empirical quantile — and clamped to the observed [min, max]. It
// panics on an empty histogram or q outside (0, 1].
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.total == 0 {
		panic("stats: quantile of empty histogram")
	}
	if q <= 0 || q > 1 {
		panic("stats: quantile level out of (0,1]")
	}
	h.prefix()
	target := q*h.total - 1e-12*h.total
	b := sort.Search(len(h.cum), func(i int) bool { return h.cum[i] >= target })
	if b >= len(h.cum) {
		b = len(h.cum) - 1
	}
	if b == 0 {
		return h.min
	}
	if b == h.nbins+1 {
		return h.max
	}
	frac := (target - h.cum[b-1]) / h.w[b]
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	x := math.Pow(10, h.edge(b)+frac/h.scale)
	if x < h.min {
		x = h.min
	}
	if x > h.max {
		x = h.max
	}
	return x
}

// Points returns the cumulative distribution over the non-empty bins:
// each bin contributes its upper edge (the underflow bin contributes the
// observed min, the overflow bin the observed max) and the cumulative
// probability through it. The slices are freshly allocated, ascending in
// x, and end at probability 1.
func (h *LogHistogram) Points() (xs, ps []float64) {
	if h.total == 0 {
		return nil, nil
	}
	h.prefix()
	for i, wi := range h.w {
		if wi == 0 {
			continue
		}
		var x float64
		switch i {
		case 0:
			x = h.min
		case h.nbins + 1:
			x = h.max
		default:
			x = math.Pow(10, h.edge(i)+1/h.scale)
		}
		xs = append(xs, x)
		ps = append(ps, h.cum[i]/h.total)
	}
	return xs, ps
}
