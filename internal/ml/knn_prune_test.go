package ml

import (
	"math"
	"sort"
	"testing"

	"faultmem/internal/dataset"
	"faultmem/internal/mat"
	"faultmem/internal/stats"
)

// kernelPaths runs f once on each mat kernel path this CPU can take, as
// a subtest or sub-benchmark: "avx" when the CPU has AVX, then "go".
func kernelPaths[T interface{ Run(string, func(T)) bool }](tb T, f func(T)) {
	saved := mat.UseAVX
	defer func() { mat.UseAVX = saved }()
	if saved {
		tb.Run("avx", f)
	}
	mat.UseAVX = false
	tb.Run("go", f)
}

// naiveKNNPredict is the reference full-scan classifier: every
// distance computed with mat.SqDist, the K nearest kept by a stable
// sort on (distance, training index), and the same
// majority-vote/smallest-label tie rule as KNN. It exists to pin the
// blocked, exact-pruned predictOne bit for bit.
func naiveKNNPredict(train *mat.Dense, labels []float64, k int, q []float64) float64 {
	n, _ := train.Dims()
	type cand struct {
		dist float64
		idx  int
	}
	cands := make([]cand, n)
	for t := 0; t < n; t++ {
		cands[t] = cand{mat.SqDist(q, train.RawRow(t)), t}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	kept := cands[:k]
	bestLabel, bestVotes := 0.0, -1
	for i := range kept {
		v := 0
		for j := range kept {
			if labels[kept[j].idx] == labels[kept[i].idx] {
				v++
			}
		}
		l := labels[kept[i].idx]
		if v > bestVotes || (v == bestVotes && l < bestLabel) {
			bestLabel, bestVotes = l, v
		}
	}
	return bestLabel
}

// TestKNNPrunedMatchesNaive pins the pruned scan's contract: blocked
// accumulation and early abandonment must keep the identical neighbor
// multiset, so every prediction is bit-identical to the naive
// full-scan reference — across narrow (no checkpoints) and wide
// (checkpointed) feature counts, including non-multiple-of-4 training
// sizes that exercise the scalar remainder, on both mat kernel paths.
func TestKNNPrunedMatchesNaive(t *testing.T) {
	kernelPaths(t, testKNNPrunedMatchesNaive)
}

func testKNNPrunedMatchesNaive(t *testing.T) {
	rng := stats.NewRand(31)
	for _, tc := range []struct{ n, d, k int }{
		{203, 15, 5},
		{120, 3, 1},
		{97, 33, 7},
		{258, 128, 5},
	} {
		x := mat.NewDense(tc.n, tc.d)
		y := make([]float64, tc.n)
		for i := 0; i < tc.n; i++ {
			for j := 0; j < tc.d; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
			y[i] = float64(rng.Intn(4))
		}
		m := NewKNN(tc.k)
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		q := mat.NewDense(50, tc.d)
		for i := 0; i < 50; i++ {
			for j := 0; j < tc.d; j++ {
				q.Set(i, j, rng.NormFloat64())
			}
		}
		got := m.Predict(q)
		for i := 0; i < 50; i++ {
			want := naiveKNNPredict(x, y, tc.k, q.RawRow(i))
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("n=%d d=%d k=%d query %d: pruned %g != naive %g",
					tc.n, tc.d, tc.k, i, got[i], want)
			}
		}
	}
}

// TestKNNPrunedMatchesNaiveWithTies stresses the deterministic
// tie-break: duplicated training rows produce exactly equal distances,
// and the earlier row must win in both scans.
func TestKNNPrunedMatchesNaiveWithTies(t *testing.T) {
	rng := stats.NewRand(77)
	n, d := 90, 6
	x := mat.NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		src := i
		if i >= n/2 {
			src = i - n/2 // second half duplicates the first, other labels
		}
		for j := 0; j < d; j++ {
			if src == i {
				x.Set(i, j, math.Round(rng.NormFloat64()*2)/2)
			} else {
				x.Set(i, j, x.At(src, j))
			}
		}
		y[i] = float64(i % 3)
	}
	m := NewKNN(4)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	q := mat.NewDense(30, d)
	for i := 0; i < 30; i++ {
		for j := 0; j < d; j++ {
			q.Set(i, j, math.Round(rng.NormFloat64()*2)/2)
		}
	}
	got := m.Predict(q)
	for i := 0; i < 30; i++ {
		want := naiveKNNPredict(x, y, 4, q.RawRow(i))
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("query %d: pruned %g != naive %g", i, got[i], want)
		}
	}
}

// TestKNNPairedMatchesOne pins the paired narrow-feature scan: every
// prediction from predictPair must be bit-identical to predictOne on
// the same query, including duplicate-row ties and the
// non-multiple-of-4 training remainder, and across odd query counts
// (where the last query falls back to the one-query path), on both mat
// kernel paths.
func TestKNNPairedMatchesOne(t *testing.T) {
	kernelPaths(t, testKNNPairedMatchesOne)
}

func testKNNPairedMatchesOne(t *testing.T) {
	rng := stats.NewRand(19)
	for _, tc := range []struct{ n, d, k, nq int }{
		{203, 15, 5, 51},
		{120, 3, 1, 2},
		{64, 32, 7, 33},
		{90, 6, 4, 40},
	} {
		x := mat.NewDense(tc.n, tc.d)
		y := make([]float64, tc.n)
		for i := 0; i < tc.n; i++ {
			src := i
			if i >= tc.n/2 {
				src = i - tc.n/2 // duplicates force exact distance ties
			}
			for j := 0; j < tc.d; j++ {
				if src == i {
					x.Set(i, j, math.Round(rng.NormFloat64()*2)/2)
				} else {
					x.Set(i, j, x.At(src, j))
				}
			}
			y[i] = float64(i % 3)
		}
		m := NewKNN(tc.k)
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		q := mat.NewDense(tc.nq, tc.d)
		for i := 0; i < tc.nq; i++ {
			for j := 0; j < tc.d; j++ {
				q.Set(i, j, math.Round(rng.NormFloat64()*2)/2)
			}
		}
		var ws Workspace
		got := m.PredictIn(&ws, q) // paired path: d <= 32
		buf := make([]neighbor, 0, tc.k)
		for i := 0; i < tc.nq; i++ {
			want := m.predictOne(q.RawRow(i), buf[:0])
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("n=%d d=%d k=%d query %d: paired %g != one-query %g",
					tc.n, tc.d, tc.k, i, got[i], want)
			}
		}
	}
}

// harPredictSetup builds the Fig. 7c-shaped KNN problem (HAR windows,
// 0.8:0.2 split) for the prediction benchmarks.
func harPredictSetup(b *testing.B) (*KNN, *mat.Dense, *dataset.Dataset) {
	b.Helper()
	d := dataset.HAR(7, dataset.DefaultHAR())
	train, test := d.Split(0.8, 3)
	m := NewKNN(5)
	if err := m.Fit(train.X, train.Y); err != nil {
		b.Fatal(err)
	}
	return m, test.X, train
}

// BenchmarkKNNPredict measures the shipped blocked/pruned prediction
// path at the Fig. 7c geometry (1200 training rows x 15 features, 300
// queries per op), on each mat kernel path.
func BenchmarkKNNPredict(b *testing.B) {
	m, q, _ := harPredictSetup(b)
	var ws Workspace
	m.PredictIn(&ws, q)
	kernelPaths(b, func(b *testing.B) {
		for b.Loop() {
			m.PredictIn(&ws, q)
		}
	})
}

// unprunedPredictOne is the pre-PR scan — one running sum per
// candidate via mat.SqDist, same K-buffer insertion — kept here as the
// before side of BenchmarkKNNPredict.
func (m *KNN) unprunedPredictOne(q []float64, best []neighbor) float64 {
	nTrain, _ := m.train.Dims()
	for t := 0; t < nTrain; t++ {
		best = m.consider(best, mat.SqDist(q, m.train.RawRow(t)), t)
	}
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

// BenchmarkKNNPredictUnpruned is the pre-PR full-scan reference for
// the same workload — the before side of the README's kernel table.
func BenchmarkKNNPredictUnpruned(b *testing.B) {
	m, q, _ := harPredictSetup(b)
	nq, _ := q.Dims()
	buf := make([]neighbor, 0, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < nq; r++ {
			m.unprunedPredictOne(q.RawRow(r), buf[:0])
		}
	}
}

// TestKNNPredictDimensionMismatchPanics pins the explicit query-width
// check: the blocked scan truncates rows to the query length, so a
// narrower (or wider) query must fail loudly up front, as the per-row
// SqDist length panic used to guarantee.
func TestKNNPredictDimensionMismatchPanics(t *testing.T) {
	x := mat.NewDense(8, 4)
	y := make([]float64, 8)
	m := NewKNN(2)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, qd := range []int{3, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("query width %d on 4-feature model did not panic", qd)
				}
			}()
			m.Predict(mat.NewDense(2, qd))
		}()
	}
}
