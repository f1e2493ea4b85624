package stats

import "math"

// Accumulator is the streaming-distribution abstraction the Monte-Carlo
// stack is built on: weighted observations go in through Add, or a run of
// equally weighted ones through AddBatch; per-shard accumulators combine
// through Merge (in shard order, so the combined result is independent
// of how many workers produced the shards), and the distribution is read
// back through P / Quantile / Points. The Fig. 5 engine adds a block of
// Monte-Carlo dies, and each exact stratum of the prior, to every arm
// through AddBatch, a run of observations at one weight.
//
// Two implementations exist:
//
//   - WeightedCDF retains every observation exactly. It is the test
//     oracle and the right choice for small sample budgets.
//   - LogHistogram bins observations into a fixed log10-domain grid with
//     underflow/overflow bins and running moments: O(bins) memory
//     regardless of the sample count, so paper-scale budgets (Trun=1e7+)
//     run in a flat memory envelope. Its shards are small fixed-size
//     value messages — the shape a multi-host sweep service can stream
//     over RPC.
//
// Merge panics when the two accumulators are of different kinds (or, for
// histograms, different bin geometries): mixing them silently would
// corrupt the distribution.
type Accumulator interface {
	// Add records an observation x with non-negative finite weight w
	// (zero-weight observations are dropped). It is AddBatch of one
	// observation.
	Add(x, w float64)
	// AddBatch records every x of xs, in order, with the one weight w.
	// It leaves the accumulator bit-identical to Add(x, w) for each x in
	// turn, and panics where those Adds would: on an invalid w before
	// adding anything (even for an empty xs), and on a NaN at xs[k] after
	// adding the first k.
	AddBatch(xs []float64, w float64)
	// Merge folds another accumulator of the same kind into this one.
	// Folding shard accumulators in shard order yields results that are
	// bit-identical for any worker count.
	Merge(o Accumulator)
	// TotalWeight returns the sum of all observation weights (0 when
	// empty).
	TotalWeight() float64
	// P returns Pr(X <= x); an empty accumulator returns 0.
	P(x float64) float64
	// Quantile returns an x with Pr(X <= x) >= q, up to the
	// implementation's resolution: WeightedCDF returns the smallest such
	// observed value exactly, LogHistogram a point within one bin width
	// of it (not necessarily an observed value, and P(x) may fall short
	// of q by up to the bin's interpolation error). It panics on an
	// empty accumulator or q outside (0, 1].
	Quantile(q float64) float64
	// Points returns the distribution evaluated over its support as
	// parallel slices (x ascending, cumulative probability ending at 1).
	Points() (xs, ps []float64)
}

var (
	_ Accumulator = (*WeightedCDF)(nil)
	_ Accumulator = (*LogHistogram)(nil)
)

// checkWeight panics on a weight no add accepts: negative, NaN or +Inf.
func checkWeight(w float64) {
	if !(w >= 0 && w <= math.MaxFloat64) {
		panic("stats: invalid observation weight")
	}
}
