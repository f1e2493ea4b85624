package ml

import (
	"math"
	"math/rand"
	"testing"

	"faultmem/internal/mat"
)

// corrupt returns a noisy copy of x, standing in for one Monte-Carlo
// trial's fault-corrupted training matrix: each trial sees different
// data, so buffer reuse across trials is actually exercised.
func corrupt(rng *rand.Rand, x *mat.Dense) *mat.Dense {
	n, d := x.Dims()
	out := x.Clone()
	for k := 0; k < n*d/10+1; k++ {
		out.Set(rng.Intn(n), rng.Intn(d), rng.NormFloat64()*10)
	}
	return out
}

func wsTestData(seed int64, n, d int) (*mat.Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = float64(rng.Intn(4))
	}
	return x, y
}

func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %g vs %g (not bit-identical)", name, i, got[i], want[i])
		}
	}
}

// TestFitInOracle pins the workspace contract for all three models: a
// warm workspace reused across trials with different corrupted training
// matrices produces bit-identical models and scores to the fresh Fit
// path.
func TestFitInOracle(t *testing.T) {
	xTrain, yTrain := wsTestData(1, 120, 8)
	xTest, yTest := wsTestData(2, 40, 8)
	rng := rand.New(rand.NewSource(3))
	var ws Workspace // one warm workspace across every trial and model
	for trial := 0; trial < 5; trial++ {
		xc := corrupt(rng, xTrain)
		for _, standardize := range []bool{false, true} {
			// Elastic net: coefficients, intercept, score.
			fresh := NewElasticNet()
			fresh.Standardize = standardize
			if err := fresh.Fit(xc, yTrain); err != nil {
				t.Fatal(err)
			}
			warm := NewElasticNet()
			warm.Standardize = standardize
			if err := warm.FitIn(&ws, xc, yTrain); err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "ElasticNet coef", warm.Coef(), fresh.Coef())
			if got, want := warm.ScoreIn(&ws, xTest, yTest), fresh.Score(xTest, yTest); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: ElasticNet ScoreIn %g vs Score %g", trial, got, want)
			}

			// PCA: eigenvalues, explained variance on held-out data.
			pFresh := NewPCA(4)
			pFresh.Standardize = standardize
			if err := pFresh.Fit(xc); err != nil {
				t.Fatal(err)
			}
			pWarm := NewPCA(4)
			pWarm.Standardize = standardize
			if err := pWarm.FitIn(&ws, xc); err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "PCA eigenvalues", pWarm.Eigenvalues(), pFresh.Eigenvalues())
			if got, want := pWarm.ExplainedVarianceOnIn(&ws, xTest), pFresh.ExplainedVarianceOn(xTest); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: PCA ExplainedVarianceOnIn %g vs %g", trial, got, want)
			}

			// KNN: predictions and score.
			kFresh := NewKNN(5)
			kFresh.Standardize = standardize
			if err := kFresh.Fit(xc, yTrain); err != nil {
				t.Fatal(err)
			}
			want := kFresh.Predict(xTest)
			kWarm := NewKNN(5)
			kWarm.Standardize = standardize
			if err := kWarm.FitIn(&ws, xc, yTrain); err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "KNN predictions", kWarm.PredictIn(&ws, xTest), want)
			if got, wantS := kWarm.ScoreIn(&ws, xTest, yTest), kFresh.Score(xTest, yTest); math.Float64bits(got) != math.Float64bits(wantS) {
				t.Fatalf("trial %d: KNN ScoreIn %g vs Score %g", trial, got, wantS)
			}
		}
	}
}

// TestFitInZeroAlloc pins the tentpole claim: a warm workspace fits and
// scores all three models without touching the allocator.
func TestFitInZeroAlloc(t *testing.T) {
	xTrain, yTrain := wsTestData(4, 100, 6)
	xTest, yTest := wsTestData(5, 30, 6)
	var ws Workspace

	en := NewElasticNet()
	if err := en.FitIn(&ws, xTrain, yTrain); err != nil {
		t.Fatal(err)
	}
	en.ScoreIn(&ws, xTest, yTest)
	if a := testing.AllocsPerRun(10, func() {
		if err := en.FitIn(&ws, xTrain, yTrain); err != nil {
			t.Error(err)
		}
	}); a != 0 {
		t.Errorf("warm ElasticNet.FitIn allocates %v/run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { en.ScoreIn(&ws, xTest, yTest) }); a != 0 {
		t.Errorf("warm ElasticNet.ScoreIn allocates %v/run, want 0", a)
	}

	pca := NewPCA(3)
	if err := pca.FitIn(&ws, xTrain); err != nil {
		t.Fatal(err)
	}
	pca.ExplainedVarianceOnIn(&ws, xTest)
	if a := testing.AllocsPerRun(10, func() {
		if err := pca.FitIn(&ws, xTrain); err != nil {
			t.Error(err)
		}
	}); a != 0 {
		t.Errorf("warm PCA.FitIn allocates %v/run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { pca.ExplainedVarianceOnIn(&ws, xTest) }); a != 0 {
		t.Errorf("warm PCA.ExplainedVarianceOnIn allocates %v/run, want 0", a)
	}

	knn := NewKNN(5)
	if err := knn.FitIn(&ws, xTrain, yTrain); err != nil {
		t.Fatal(err)
	}
	knn.ScoreIn(&ws, xTest, yTest)
	if a := testing.AllocsPerRun(10, func() {
		if err := knn.FitIn(&ws, xTrain, yTrain); err != nil {
			t.Error(err)
		}
	}); a != 0 {
		t.Errorf("warm KNN.FitIn allocates %v/run, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { knn.ScoreIn(&ws, xTest, yTest) }); a != 0 {
		t.Errorf("warm KNN.ScoreIn allocates %v/run, want 0", a)
	}
}

// TestElasticNetFitKeepsHyperparameters pins the config-struct fix: Fit
// must not write its MaxIter/Tol defaults back into the receiver, so a
// shared config struct is not rewritten mid-experiment.
func TestElasticNetFitKeepsHyperparameters(t *testing.T) {
	x, y := wsTestData(6, 50, 4)
	en := &ElasticNet{Alpha: 0.01, L1Ratio: 0.5} // MaxIter/Tol unset
	if err := en.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if en.MaxIter != 0 || en.Tol != 0 {
		t.Errorf("Fit mutated hyperparameters: MaxIter=%d Tol=%g, want 0/0", en.MaxIter, en.Tol)
	}
	if en.Iterations() < 1 {
		t.Error("defaults not applied internally")
	}
	// And the unset defaults behave identically to the explicit ones.
	explicit := &ElasticNet{Alpha: 0.01, L1Ratio: 0.5, MaxIter: 300, Tol: 1e-6}
	if err := explicit.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "default-vs-explicit coef", en.Coef(), explicit.Coef())
}

// TestFitScalerStandardizes pins the scaler every model fits: with
// standardize, columns come out at zero mean and unit sample standard
// deviation, a constant column is centred but not blown up, and the
// learned transform applies to held-out rows; without, it only centres.
func TestFitScalerStandardizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := mat.NewDense(200, 3)
	for i := 0; i < 200; i++ {
		m.Set(i, 0, rng.NormFloat64()*5+3)
		m.Set(i, 1, rng.NormFloat64()*0.1-2)
		m.Set(i, 2, 7) // constant column
	}
	var ws Workspace
	s := ws.fitScaler(m, true)
	z := s.Apply(m)
	mu := mat.ColMeans(z)
	sd := mat.ColStds(z)
	for j := 0; j < 2; j++ {
		if math.Abs(mu[j]) > 1e-10 {
			t.Errorf("col %d standardized mean %g", j, mu[j])
		}
		if math.Abs(sd[j]-1) > 1e-10 {
			t.Errorf("col %d standardized std %g", j, sd[j])
		}
	}
	if s.Std[2] != 1 || math.Abs(mu[2]) > 1e-12 || sd[2] != 0 {
		t.Errorf("constant column handled badly: scale %g, mean %g, std %g", s.Std[2], mu[2], sd[2])
	}
	row := mat.FromRows([][]float64{{3, -2, 7}})
	if zr := s.Apply(row); math.Abs(zr.At(0, 0)-(3-s.Mean[0])/s.Std[0]) > 1e-12 {
		t.Error("held-out Apply mismatch")
	}
	raw := ws.fitScaler(m, false)
	means := mat.ColMeans(m)
	for j, v := range raw.Std {
		if v != 1 || raw.Mean[j] != means[j] {
			t.Errorf("raw scaler col %d: mean %g, scale %g", j, raw.Mean[j], v)
		}
	}
}
