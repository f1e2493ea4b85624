package ml

import (
	"fmt"
	"math"

	"faultmem/internal/mat"
)

// KNN is a k-nearest-neighbors classifier with Euclidean distance and
// majority voting (ties broken toward the smallest label, matching a
// stable deterministic rule).
type KNN struct {
	// K is the neighbor count (default 5).
	K int
	// Standardize selects whether features are scaled to zero mean / unit
	// variance before distance computation. Scikit-Learn's
	// KNeighborsClassifier — the paper's implementation [21] — computes
	// distances on raw features, so the Fig. 7 experiments leave this
	// false; NewKNN defaults to false accordingly.
	Standardize bool

	scaler *mat.Standardizer
	train  *mat.Dense
	panels *mat.Panels // train in 4-row panels, when at most pairMaxCols wide
	labels []float64
}

// pairMaxCols is the widest training set PredictIn scans two queries at
// a time (predictPair): at <= 32 columns predictOne's blocked scan takes
// no early-abandon checkpoints, so nothing is lost by pairing queries,
// and each training-row load is amortized across both.
const pairMaxCols = 32

// NewKNN returns a classifier with k neighbors on raw features
// (Scikit-Learn-compatible behaviour).
func NewKNN(k int) *KNN { return &KNN{K: k} }

// Fit stores the training set.
func (m *KNN) Fit(x *mat.Dense, y []float64) error {
	return m.FitIn(nil, x, y)
}

// FitIn is Fit backed by a reusable workspace: the cloned (or
// standardized) training matrix and the label copy come from ws, so a
// warm workspace makes repeated fits allocation-free. The result is
// bit-identical to Fit. The fitted model borrows ws (see Workspace); a
// nil ws allocates fresh buffers.
func (m *KNN) FitIn(ws *Workspace, x *mat.Dense, y []float64) error {
	if ws == nil {
		ws = &Workspace{}
	}
	n, d := x.Dims()
	if n != len(y) {
		return fmt.Errorf("ml: X rows %d != y length %d", n, len(y))
	}
	if m.K < 1 {
		return fmt.Errorf("ml: K must be positive, got %d", m.K)
	}
	if n < m.K {
		return fmt.Errorf("ml: %d training samples < K=%d", n, m.K)
	}
	ws.train = mat.Reshape(ws.train, n, d)
	if m.Standardize {
		m.scaler = ws.fitScaler(x, true)
		m.scaler.ApplyInto(ws.train, x)
	} else {
		m.scaler = nil
		ws.train.Copy(x)
	}
	m.train = ws.train
	m.panels = nil
	if d <= pairMaxCols {
		m.panels = ws.trainPanels.PackDense(ws.train)
	}
	m.labels = floats(&ws.labels, len(y))
	copy(m.labels, y)
	return nil
}

// Predict classifies each row of x.
func (m *KNN) Predict(x *mat.Dense) []float64 {
	return m.PredictIn(nil, x)
}

// PredictIn is Predict backed by a reusable workspace (standardized
// copy, neighbor buffer, output vector), so a warm workspace predicts
// allocation-free. The returned slice aliases ws and stays valid until
// the next PredictIn/ScoreIn on it. A nil ws allocates fresh buffers.
func (m *KNN) PredictIn(ws *Workspace, x *mat.Dense) []float64 {
	if m.train == nil {
		panic("ml: KNN.Predict before Fit")
	}
	if ws == nil {
		ws = &Workspace{}
	}
	// The blocked scan in predictOne reslices training rows to the
	// query width, so a mismatched query must be rejected here (the
	// per-row SqDist length panic used to catch it implicitly).
	_, qd := x.Dims()
	if _, td := m.train.Dims(); qd != td {
		panic(fmt.Sprintf("ml: KNN query has %d features, trained on %d", qd, td))
	}
	z := x
	if m.scaler != nil {
		n, d := x.Dims()
		ws.zEval = m.scaler.ApplyInto(mat.Reshape(ws.zEval, n, d), x)
		z = ws.zEval
	}
	if cap(ws.neighbors) < m.K {
		ws.neighbors = make([]neighbor, 0, m.K)
	}
	n, _ := z.Dims()
	out := floats(&ws.preds, n)
	i := 0
	// Narrow-feature fast path (see pairMaxCols): distances accumulate
	// in exactly the same per-pair order, so predictions are
	// bit-identical to the one-query path (pinned by
	// TestKNNPairedMatchesOne).
	if m.panels != nil {
		if cap(ws.neighborsB) < m.K {
			ws.neighborsB = make([]neighbor, 0, m.K)
		}
		for ; i+2 <= n; i += 2 {
			out[i], out[i+1] = m.predictPair(z.RawRow(i), z.RawRow(i+1),
				ws.neighbors[:0], ws.neighborsB[:0])
		}
	}
	for ; i < n; i++ {
		out[i] = m.predictOne(z.RawRow(i), ws.neighbors[:0])
	}
	return out
}

type neighbor struct {
	dist  float64
	label float64
}

// predictOne classifies one query row. best is a zero-length scratch
// buffer with capacity >= K; it holds the K running nearest neighbors
// in ascending distance (equal distances keep earlier training rows
// first, so the kept multiset — and therefore the vote — is fully
// deterministic).
//
// The candidate scan is blocked and exact-pruned, and its predictions
// are bit-identical to a naive full scan (pinned by
// TestKNNPrunedMatchesNaive):
//
//   - Candidates are walked four training rows at a time with four
//     independent distance accumulators. Each row's sum still adds its
//     terms in ascending feature order — exactly SqDist's order — but
//     the four dependency chains pipeline where a single running sum
//     serializes on add latency (~1.7x at the 15-feature HAR
//     geometry, per BenchmarkKNNPredict).
//   - Once K neighbors are held, the accumulation early-abandons
//     against the kth-best distance at 32-column checkpoints. Squared
//     terms only grow the sum, so an abandoned block is one whose four
//     rows the full scan would also have rejected (it rejects on
//     d >= kth-best). Checking every column costs more than it saves
//     at small d (benched), so narrow data like HAR takes no
//     checkpoints at all and wide data pays one branch per 128 terms.
func (m *KNN) predictOne(q []float64, best []neighbor) float64 {
	nTrain, _ := m.train.Dims()
	dl := len(q)
	t := 0
outer:
	for ; t+4 <= nTrain; t += 4 {
		r0 := m.train.RawRow(t)[:dl]
		r1 := m.train.RawRow(t + 1)[:dl]
		r2 := m.train.RawRow(t + 2)[:dl]
		r3 := m.train.RawRow(t + 3)[:dl]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+32 <= dl; j += 32 {
			for jj := j; jj < j+32; jj++ {
				qv := q[jj]
				d0 := qv - r0[jj]
				s0 += d0 * d0
				d1 := qv - r1[jj]
				s1 += d1 * d1
				d2 := qv - r2[jj]
				s2 += d2 * d2
				d3 := qv - r3[jj]
				s3 += d3 * d3
			}
			if j+32 < dl && len(best) == m.K {
				if bd := best[m.K-1].dist; s0 >= bd && s1 >= bd && s2 >= bd && s3 >= bd {
					continue outer
				}
			}
		}
		for ; j < dl; j++ {
			qv := q[j]
			d0 := qv - r0[j]
			s0 += d0 * d0
			d1 := qv - r1[j]
			s1 += d1 * d1
			d2 := qv - r2[j]
			s2 += d2 * d2
			d3 := qv - r3[j]
			s3 += d3 * d3
		}
		best = m.consider(best, s0, t)
		best = m.consider(best, s1, t+1)
		best = m.consider(best, s2, t+2)
		best = m.consider(best, s3, t+3)
	}
	for ; t < nTrain; t++ {
		bound := math.Inf(1)
		if len(best) == m.K {
			bound = best[m.K-1].dist
		}
		d, ok := mat.SqDistBounded(q, m.train.RawRow(t), bound)
		if !ok {
			continue
		}
		best = m.consider(best, d, t)
	}
	return vote(best)
}

// predictPair classifies two query rows in one pass over the training
// matrix (the narrow-feature path of PredictIn). The full four-row
// panels go through mat.Panels.ScanPair, which charges each training
// row against both queries and adds every (query, row) distance's
// squared terms in ascending feature order — exactly SqDist's order —
// so both results are bit-identical to predictOne on the same query.
// Once both K-buffers are full, ScanPair abandons a panel whose eight
// half-way partial sums, or failing that whose eight full distances,
// all reach their query's kth-best distance: squared terms only grow
// the sums, and the bounds fall only when consider inserts, so every
// skipped row is one consider would have rejected (d >= bound), and the
// kept neighbor multisets — hence the votes — are unchanged. The eight
// consider calls therefore run only for panels that hold a candidate.
// Until both buffers are full the bounds are NaN, which abandons
// nothing.
func (m *KNN) predictPair(qa, qb []float64, bestA, bestB []neighbor) (float64, float64) {
	nTrain, _ := m.train.Dims()
	rows, _ := m.panels.Dims()
	full := rows / 4
	var sums [8]float64
	for p := 0; ; p++ {
		boundA, boundB := math.NaN(), math.NaN()
		if len(bestA) == m.K && len(bestB) == m.K {
			boundA, boundB = bestA[m.K-1].dist, bestB[m.K-1].dist
		}
		if p = m.panels.ScanPair(p, qa, qb, boundA, boundB, &sums); p == full {
			break
		}
		t := 4 * p
		bestA = m.consider(bestA, sums[0], t)
		bestA = m.consider(bestA, sums[1], t+1)
		bestA = m.consider(bestA, sums[2], t+2)
		bestA = m.consider(bestA, sums[3], t+3)
		bestB = m.consider(bestB, sums[4], t)
		bestB = m.consider(bestB, sums[5], t+1)
		bestB = m.consider(bestB, sums[6], t+2)
		bestB = m.consider(bestB, sums[7], t+3)
	}
	for t := 4 * full; t < nTrain; t++ {
		row := m.train.RawRow(t)
		boundA := math.Inf(1)
		if len(bestA) == m.K {
			boundA = bestA[m.K-1].dist
		}
		if d, ok := mat.SqDistBounded(qa, row, boundA); ok {
			bestA = m.consider(bestA, d, t)
		}
		boundB := math.Inf(1)
		if len(bestB) == m.K {
			boundB = bestB[m.K-1].dist
		}
		if d, ok := mat.SqDistBounded(qb, row, boundB); ok {
			bestB = m.consider(bestB, d, t)
		}
	}
	return vote(bestA), vote(bestB)
}

// vote returns the majority label of the kept neighbors, ties broken
// toward the smallest label: count each kept label in place instead of
// building a map.
func vote(best []neighbor) float64 {
	bestLabel, bestVotes := 0.0, -1
	for i := range best {
		v := 0
		for j := range best {
			if best[j].label == best[i].label {
				v++
			}
		}
		if v > bestVotes || (v == bestVotes && best[i].label < bestLabel) {
			bestLabel, bestVotes = best[i].label, v
		}
	}
	return bestLabel
}

// consider offers training row t at squared distance d to the running
// K-nearest buffer, inserting after any equal distances so earlier
// rows win ties (the same deterministic rule as the pre-pruning scan).
func (m *KNN) consider(best []neighbor, d float64, t int) []neighbor {
	if len(best) == m.K {
		if d >= best[m.K-1].dist {
			return best
		}
		best = best[:m.K-1]
	}
	pos := len(best)
	for pos > 0 && best[pos-1].dist > d {
		pos--
	}
	best = append(best, neighbor{})
	copy(best[pos+1:], best[pos:len(best)-1])
	best[pos] = neighbor{d, m.labels[t]}
	return best
}

// Score returns the classification accuracy on (x, y): the "Score"
// quality metric of the KNN row in Table 1.
func (m *KNN) Score(x *mat.Dense, y []float64) float64 {
	return Accuracy(y, m.Predict(x))
}

// ScoreIn is Score on workspace-backed prediction buffers (see
// PredictIn); bit-identical to Score.
func (m *KNN) ScoreIn(ws *Workspace, x *mat.Dense, y []float64) float64 {
	return Accuracy(y, m.PredictIn(ws, x))
}
