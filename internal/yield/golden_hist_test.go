package yield

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"faultmem/internal/stats"
)

// fig5HistGolden is the digest (histDigest) of a histogram-mode Fig. 5
// run at fig5HistGoldenParams, captured when the engine began to compute
// the one- and two-fault strata exactly and to sample only dies of three
// or more faults. The worker-count tests only compare runs with each
// other, so a change that moved observations consistently would pass
// them; this pins the absolute bits.
const fig5HistGolden = "5dd3a5560109fc1a0a5548b79126db6faded6c4d37c5e91ad20b0cb9d1404693"

func fig5HistGoldenParams() CDFParams {
	p := DefaultCDFParams()
	p.Trun = 2e6
	p.MaxPerCount = 0
	p.Seed = 7
	p.Workers = 3
	p.Accum = AccumHist
	return p
}

// histDigest hashes every arm's histogram state as float64 bits: sample
// and observation counts, total weight, mean, extrema, every non-empty
// bin's upper edge and cumulative probability, and the MSE at a few
// yield levels.
func histDigest(t *testing.T, rs []CDFResult) string {
	t.Helper()
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, r := range rs {
		lh, ok := r.CDF.(*stats.LogHistogram)
		if !ok {
			t.Fatalf("%s: accumulator is %T, want *stats.LogHistogram", r.Scheme, r.CDF)
		}
		fmt.Fprintf(h, "%s|%d|%d|%d|", r.Scheme, r.Samples, r.MaxFailuresSwept, lh.Count())
		put(r.PZeroFailures)
		put(lh.TotalWeight())
		put(lh.Mean())
		put(lh.Min())
		put(lh.Max())
		xs, ps := lh.Points()
		for i := range xs {
			put(xs[i])
			put(ps[i])
		}
		for _, q := range []float64{0.9, 0.99, 0.999, 0.9999} {
			put(r.MSEAtYield(q))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestFig5HistogramGolden(t *testing.T) {
	rs := msecdfAll(t, fig5HistGoldenParams(), fig5Schemes())
	if got := histDigest(t, rs); got != fig5HistGolden {
		t.Fatalf("histogram-mode Fig. 5 digest %s, want %s", got, fig5HistGolden)
	}
}
