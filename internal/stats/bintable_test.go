package stats

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"testing"
)

// ulpStep moves x by n ulps along the ordered bit patterns of the
// non-negative float64s, clamped to [0, +Inf].
func ulpStep(x float64, n int64) float64 {
	b := int64(math.Float64bits(x)) + n
	if b < 0 {
		b = 0
	}
	if inf := int64(math.Float64bits(math.Inf(1))); b > inf {
		b = inf
	}
	return math.Float64frombits(uint64(b))
}

// TestBinTableMatchesLog10Definition is the bucket oracle: for every
// geometry the table lookup must equal the Log10 formula it was built
// from — at and around every threshold, at every cell edge, at random
// points inside and outside the domain, and at the special values.
func TestBinTableMatchesLog10Definition(t *testing.T) {
	// -short (the race-detector run) narrows the windows; the full sweep
	// runs in the plain test run.
	ulps, randoms := int64(4096), 1<<20
	if testing.Short() {
		ulps, randoms = 256, 1<<16
	}
	geoms := []struct {
		bins           int
		logMin, logMax float64
	}{
		{DefaultLogHistBins, -8, 20}, // the Fig. 5 engine's geometry
		{1, -3, 5},
		{7, -3, 5},
		{8192, -3, 5},
	}
	for _, g := range geoms {
		g := g
		t.Run(fmt.Sprintf("%d@[%g,%g)", g.bins, g.logMin, g.logMax), func(t *testing.T) {
			t.Parallel()
			h := NewLogHistogram(g.bins, g.logMin, g.logMax)
			tab := newBinTable(h)
			fails := 0
			check := func(x float64) {
				if got, want := h.bucket(x), h.bucketLog10(x); got != want && fails < 10 {
					fails++
					t.Errorf("x=%v (bits %#x): table bin %d, Log10 bin %d", x, math.Float64bits(x), got, want)
				}
			}

			// Thresholds are transitions of the formula, ascending.
			for k := 1; k <= g.bins+1; k++ {
				x := tab.thr[k]
				if h.bucketLog10(x) < k || h.bucketLog10(ulpStep(x, -1)) >= k {
					t.Fatalf("thr[%d] = %v is not the first float64 of bin >= %d", k, x, k)
				}
				if x < tab.thr[k-1] {
					t.Fatalf("thresholds not ascending at %d", k)
				}
			}
			// ±4096 ulps around every threshold.
			for k := 1; k <= g.bins+1; k++ {
				for d := -ulps; d <= ulps; d++ {
					check(ulpStep(tab.thr[k], d))
				}
			}
			// Every cell edge the table covers, one cell either side, and
			// its neighbouring floats.
			for c := tab.cellLo - 1; c <= tab.cellLo+uint64(len(tab.base)); c++ {
				edge := math.Float64frombits(c << cellShift)
				for d := int64(-2); d <= 2; d++ {
					check(ulpStep(edge, d))
				}
			}
			// Random points: log-uniform over the domain widened by 4
			// decades each side, and raw positive bit patterns (NaNs
			// excluded: Add and the engine never bin them).
			rng := NewRand(int64(g.bins))
			span := g.logMax - g.logMin + 8
			for i := 0; i < randoms; i++ {
				check(math.Pow(10, g.logMin-4+rng.Float64()*span))
				if x := math.Float64frombits(rng.Uint64() >> 1); !math.IsNaN(x) {
					check(x)
				}
			}
			// Special values.
			for _, x := range []float64{
				0, math.Copysign(0, -1), -1, -math.MaxFloat64, math.Inf(-1),
				math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072009e-308,
				math.MaxFloat64, math.Inf(1),
				math.Pow(10, g.logMin), math.Pow(10, g.logMax),
			} {
				check(x)
			}
		})
	}
}

// TestBinTableShared: histograms of one geometry share one table, it is
// fetched on first use only (a decoded histogram carries none until
// queried), and the cache stays bounded however many geometries pass
// through it.
func TestBinTableShared(t *testing.T) {
	a := NewLogHistogram(0, -8, 20)
	b := NewLogHistogram(0, -8, 20)
	if a.tab != nil {
		t.Fatal("table built before first use")
	}
	a.Add(1, 1)
	b.Add(2, 1)
	if a.tab == nil || a.tab != b.tab {
		t.Fatal("histograms of one geometry do not share a table")
	}
	var back LogHistogram
	gobRoundTrip(t, a, &back)
	if back.tab != nil {
		t.Fatal("GobDecode built a bin table")
	}
	for i := 1; i <= 3*maxBinTables; i++ {
		NewLogHistogram(i, 0, 1).Add(2, 1)
	}
	binTables.Lock()
	n := len(binTables.m)
	binTables.Unlock()
	if n > maxBinTables {
		t.Fatalf("bin-table cache holds %d geometries, cap %d", n, maxBinTables)
	}
}

// TestLogHistogramRejectsOversizedBins: the bin cap holds at
// construction.
func TestLogHistogramRejectsOversizedBins(t *testing.T) {
	mustPanic(t, func() { NewLogHistogram(MaxLogHistBins+1, -8, 20) })
	NewLogHistogram(MaxLogHistBins, -8, 20)
}

// TestLogHistogramGobDecodeRejectsBadGeometryAndWeights: decoding enforces
// what NewLogHistogram and Add enforce.
func TestLogHistogramGobDecodeRejectsBadGeometryAndWeights(t *testing.T) {
	good := func() histWire {
		return histWire{NBins: 2, LogMin: -1, LogMax: 1, W: []float64{0, 1, 2, 0}, Total: 3, Count: 2}
	}
	cases := map[string]func(*histWire){
		"+Inf max":       func(w *histWire) { w.LogMax = math.Inf(1) },
		"-Inf min":       func(w *histWire) { w.LogMin = math.Inf(-1) },
		"NaN min":        func(w *histWire) { w.LogMin = math.NaN() },
		"empty domain":   func(w *histWire) { w.LogMax = w.LogMin },
		"too many bins":  func(w *histWire) { w.NBins = MaxLogHistBins + 1; w.W = make([]float64, w.NBins+2) },
		"negative bin":   func(w *histWire) { w.W[1] = -1 },
		"NaN bin":        func(w *histWire) { w.W[2] = math.NaN() },
		"infinite bin":   func(w *histWire) { w.W[3] = math.Inf(1) },
		"negative under": func(w *histWire) { w.W[0] = -0.5 },
	}
	decode := func(w histWire) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		var h LogHistogram
		return h.GobDecode(buf.Bytes())
	}
	if err := decode(good()); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	for name, corrupt := range cases {
		w := good()
		corrupt(&w)
		if err := decode(w); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func BenchmarkLogHistogramAdd(b *testing.B) {
	h := NewLogHistogram(0, -8, 20)
	rng := NewRand(1)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = math.Pow(10, rng.Float64()*12-2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(xs[i&(len(xs)-1)], 1e-6)
	}
}
