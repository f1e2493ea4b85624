package stats

import (
	"math"
	"sync"
)

// binTable is LogHistogram's logarithm-free bin lookup for one geometry.
// The bin formula (LogHistogram.bucketLog10) is monotone in x, so it is
// fully described by the nbins+1 float64 thresholds at which it moves up
// one bin; binTable stores those thresholds, found by bisection over the
// formula itself, so a lookup reproduces the formula bit for bit.
//
// To find the candidate threshold without a search, the positive float64
// line is cut into cells by the top bits of the encoding (exponent plus
// cellBits mantissa bits, i.e. Float64bits(x) >> cellShift): 64 cells per
// binade, each spanning at most 1.6% of its lower edge. For every cell
// between the first and last threshold the table keeps the bin of the
// cell's smallest value; a lookup loads that bin and steps past any
// threshold inside the cell. At the default 2048 bins over 28 decades a
// bin is 3.2% wide, so a cell holds at most one threshold and the step
// is one compare; finer geometries loop a little longer and stay exact.
type binTable struct {
	nbins int
	// thr[k], k = 1..nbins+1, is the smallest positive float64 whose bin
	// is at least k; thr[0] = 0 is unused.
	thr []float64
	// base[c-cellLo] is the bin of the smallest float64 in cell c. Cells
	// below cellLo lie under thr[1] (underflow bin); cells past the end of
	// base lie at or above thr[nbins+1] (overflow bin).
	base   []uint32
	cellLo uint64
}

const (
	cellBits  = 6
	cellShift = 52 - cellBits
)

// bin returns the bin index of x, which must be positive and not NaN.
func (t *binTable) bin(x float64) int {
	c := math.Float64bits(x) >> cellShift
	i := c - t.cellLo
	if i >= uint64(len(t.base)) {
		if c < t.cellLo {
			return 0
		}
		return t.nbins + 1
	}
	b := int(t.base[i])
	for b <= t.nbins && x >= t.thr[b+1] {
		b++
	}
	return b
}

// newBinTable tabulates h's bucketLog10 formula. Every threshold is a
// 63-step bisection over the ordered bit patterns of the positive
// float64s (0 lies in the underflow bin and +Inf in the overflow bin, so
// the bracket always holds): about 5 ms and 40 KB at the default
// geometry, 120 ms and 540 KB at MaxLogHistBins.
func newBinTable(h *LogHistogram) *binTable {
	n := h.nbins
	inf := math.Float64bits(math.Inf(1))
	t := &binTable{nbins: n, thr: make([]float64, n+2)}
	lo := uint64(0) // bucket(lo) < k for the k being searched
	for k := 1; k <= n+1; k++ {
		hi := inf
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if h.bucketLog10(math.Float64frombits(mid)) >= k {
				hi = mid
			} else {
				lo = mid
			}
		}
		t.thr[k] = math.Float64frombits(hi)
		// The next threshold is no smaller; hi-1 still lies below it.
		lo = hi - 1
	}
	t.cellLo = math.Float64bits(t.thr[1]) >> cellShift
	cellHi := math.Float64bits(t.thr[n+1]) >> cellShift
	t.base = make([]uint32, cellHi-t.cellLo+1)
	b := 0
	for i := range t.base {
		edge := math.Float64frombits((t.cellLo + uint64(i)) << cellShift)
		for b <= n && edge >= t.thr[b+1] {
			b++
		}
		t.base[i] = uint32(b)
	}
	return t
}

// binGeometry keys the shared tables.
type binGeometry struct {
	nbins          int
	logMin, logMax float64
}

// maxBinTables bounds the shared table cache. A campaign uses one
// geometry for all of its shard histograms; when more than this many
// geometries are in play the cache starts over, and histograms already
// holding an evicted table keep using it. A table is a pure function of
// its geometry, so which histograms share one never changes a result.
const maxBinTables = 8

var binTables struct {
	sync.Mutex
	m map[binGeometry]*binTable
}

// sharedBinTable returns the immutable table of h's geometry, building it
// on first use. Concurrent first uses of one geometry wait for a single
// build.
func sharedBinTable(h *LogHistogram) *binTable {
	g := h.geometry()
	binTables.Lock()
	defer binTables.Unlock()
	if t, ok := binTables.m[g]; ok {
		return t
	}
	if binTables.m == nil || len(binTables.m) >= maxBinTables {
		binTables.m = make(map[binGeometry]*binTable)
	}
	t := newBinTable(h)
	binTables.m[g] = t
	return t
}
