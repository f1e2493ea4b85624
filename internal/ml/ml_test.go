package ml

import (
	"math"
	"testing"

	"faultmem/internal/dataset"
	"faultmem/internal/mat"
	"faultmem/internal/stats"
)

func TestR2KnownValues(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if got := R2(y, y); got != 1 {
		t.Errorf("perfect prediction R² = %g", got)
	}
	// Predicting the mean gives 0.
	if got := R2(y, []float64{2.5, 2.5, 2.5, 2.5}); math.Abs(got) > 1e-12 {
		t.Errorf("mean prediction R² = %g", got)
	}
	// Terrible prediction is negative.
	if got := R2(y, []float64{4, 3, 2, 1}); got >= 0 {
		t.Errorf("anti-prediction R² = %g, want negative", got)
	}
	// Constant truth conventions.
	if got := R2([]float64{2, 2}, []float64{2, 2}); got != 1 {
		t.Errorf("constant-exact R² = %g", got)
	}
	if got := R2([]float64{2, 2}, []float64{3, 3}); got != 0 {
		t.Errorf("constant-miss R² = %g", got)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 1 {
		t.Errorf("accuracy %g", got)
	}
	if got := Accuracy([]float64{1, 2, 3, 4}, []float64{1, 0, 3, 0}); got != 0.5 {
		t.Errorf("accuracy %g", got)
	}
}

func TestNormalizeQuality(t *testing.T) {
	if NormalizeQuality(0.3, 0.6) != 0.5 {
		t.Error("ratio wrong")
	}
	if NormalizeQuality(-2, 0.5) != 0 {
		t.Error("negative metric should clamp to 0")
	}
	if NormalizeQuality(0.9, 0.6) != 1 {
		t.Error("above-reference should clamp to 1")
	}
}

func TestElasticNetRecoversPlantedModel(t *testing.T) {
	// y = 3*x0 - 2*x1 + noise, x2..x4 irrelevant: the net must find the
	// planted coefficients (in standardized space, up to scaling) and
	// score well out of sample.
	rng := stats.NewRand(4)
	n, d := 400, 5
	x := mat.NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = 3*x.At(i, 0) - 2*x.At(i, 1) + 0.3*rng.NormFloat64()
	}
	en := NewElasticNet()
	en.Alpha = 0.001
	if err := en.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	coef := en.Coef()
	if math.Abs(coef[0]-3) > 0.15 || math.Abs(coef[1]+2) > 0.15 {
		t.Errorf("planted coefficients not recovered: %v", coef[:2])
	}
	for j := 2; j < d; j++ {
		if math.Abs(coef[j]) > 0.1 {
			t.Errorf("irrelevant coef %d = %g", j, coef[j])
		}
	}
	// Held-out score.
	xt := mat.NewDense(100, d)
	yt := make([]float64, 100)
	for i := 0; i < 100; i++ {
		for j := 0; j < d; j++ {
			xt.Set(i, j, rng.NormFloat64())
		}
		yt[i] = 3*xt.At(i, 0) - 2*xt.At(i, 1) + 0.3*rng.NormFloat64()
	}
	if s := en.Score(xt, yt); s < 0.95 {
		t.Errorf("held-out R² = %.3f, want > 0.95", s)
	}
}

func TestElasticNetL1Sparsity(t *testing.T) {
	// Strong L1 must zero out noise coefficients entirely.
	rng := stats.NewRand(6)
	n, d := 200, 10
	x := mat.NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = 5*x.At(i, 0) + 0.5*rng.NormFloat64()
	}
	en := &ElasticNet{Alpha: 0.5, L1Ratio: 1.0, MaxIter: 500, Tol: 1e-7}
	if err := en.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	coef := en.Coef()
	zeros := 0
	for j := 1; j < d; j++ {
		if coef[j] == 0 {
			zeros++
		}
	}
	if zeros < d-3 {
		t.Errorf("lasso kept %d nonzero noise coefficients", d-1-zeros)
	}
	if coef[0] < 3 {
		t.Errorf("signal coefficient shrunk to %g", coef[0])
	}
}

func TestElasticNetValidation(t *testing.T) {
	en := NewElasticNet()
	x := mat.NewDense(3, 2)
	if err := en.Fit(x, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	one := mat.NewDense(1, 2)
	if err := en.Fit(one, []float64{1}); err == nil {
		t.Error("single sample accepted")
	}
}

func TestElasticNetOnWine(t *testing.T) {
	// End-to-end on the synthetic wine set: clean R² must land in the
	// regime of the real dataset (≈0.3-0.5 for linear models).
	d := dataset.Wine(1)
	train, test := d.Split(0.8, 1)
	en := NewElasticNet()
	if err := en.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	r2 := en.Score(test.X, test.Y)
	if r2 < 0.2 || r2 > 0.7 {
		t.Errorf("wine R² = %.3f outside the plausible regime [0.2, 0.7]", r2)
	}
}

func TestPCADiagonalCovariance(t *testing.T) {
	// Independent features with very different variances: the first
	// component must align with the high-variance feature... after
	// standardization all variances are 1, so instead verify on
	// correlated data that 1 component explains most variance.
	rng := stats.NewRand(8)
	n := 300
	x := mat.NewDense(n, 3)
	for i := 0; i < n; i++ {
		base := rng.NormFloat64()
		x.Set(i, 0, base+0.05*rng.NormFloat64())
		x.Set(i, 1, base+0.05*rng.NormFloat64())
		x.Set(i, 2, base+0.05*rng.NormFloat64())
	}
	p := NewPCA(1)
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	if evr := p.ExplainedVarianceRatio(); evr < 0.95 {
		t.Errorf("1 component explains %.3f of rank-1 data", evr)
	}
	if ev := p.ExplainedVarianceOn(x); ev < 0.95 {
		t.Errorf("on-sample explained variance %.3f", ev)
	}
}

func TestPCAExplainedVarianceOnHeldOut(t *testing.T) {
	// On the Madelon-like data the informative+redundant structure means
	// a handful of components capture much more than chance.
	d := dataset.Madelon(3, dataset.MadelonParams{
		Samples: 600, Informative: 5, Redundant: 15, Probes: 30, ClusterStd: 1,
	})
	train, test := d.Split(0.8, 2)
	p := NewPCA(10)
	if err := p.Fit(train.X); err != nil {
		t.Fatal(err)
	}
	ev := p.ExplainedVarianceOn(test.X)
	chance := 10.0 / 50.0 // k/d for isotropic data
	if ev < chance+0.15 {
		t.Errorf("explained variance %.3f barely above chance %.3f", ev, chance)
	}
	if ev > 1 {
		t.Errorf("explained variance %.3f > 1", ev)
	}
}

func TestPCATransformShape(t *testing.T) {
	d := dataset.Madelon(3, dataset.MadelonParams{
		Samples: 100, Informative: 5, Redundant: 5, Probes: 10, ClusterStd: 1,
	})
	p := NewPCA(4)
	if err := p.Fit(d.X); err != nil {
		t.Fatal(err)
	}
	z := p.Transform(d.X)
	r, c := z.Dims()
	if r != 100 || c != 4 {
		t.Errorf("transform shape %dx%d", r, c)
	}
	// Eigenvalues reports the retained top-k spectrum; the full
	// eigenvalue sum survives as the covariance trace.
	if len(p.Eigenvalues()) != 4 {
		t.Errorf("eigenvalue count %d, want the 4 retained", len(p.Eigenvalues()))
	}
	if tv := p.TotalVariance(); tv <= 0 {
		t.Errorf("total variance %g, want positive", tv)
	}
}

func TestPCAValidation(t *testing.T) {
	p := NewPCA(0)
	if err := p.Fit(mat.NewDense(10, 3)); err == nil {
		t.Error("0 components accepted")
	}
	p = NewPCA(5)
	if err := p.Fit(mat.NewDense(10, 3)); err == nil {
		t.Error("components > features accepted")
	}
}

func TestKNNSeparatedClusters(t *testing.T) {
	rng := stats.NewRand(10)
	n := 200
	x := mat.NewDense(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		cls := float64(i % 2)
		y[i] = cls
		x.Set(i, 0, cls*10+rng.NormFloat64())
		x.Set(i, 1, -cls*10+rng.NormFloat64())
	}
	k := NewKNN(5)
	if err := k.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if s := k.Score(x, y); s != 1 {
		t.Errorf("separated clusters score %.3f", s)
	}
}

func TestKNNTieBreakDeterministic(t *testing.T) {
	// k=2 with one neighbor of each class: the smaller label must win.
	x := mat.FromRows([][]float64{{0}, {2}})
	y := []float64{1, 0}
	k := NewKNN(2)
	if err := k.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	q := mat.FromRows([][]float64{{1}})
	if got := k.Predict(q)[0]; got != 0 {
		t.Errorf("tie broken toward %g, want 0", got)
	}
}

func TestKNNValidation(t *testing.T) {
	k := NewKNN(5)
	if err := k.Fit(mat.NewDense(3, 2), []float64{1, 2, 3}); err == nil {
		t.Error("n < K accepted")
	}
	k = NewKNN(0)
	if err := k.Fit(mat.NewDense(3, 2), []float64{1, 2, 3}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestKNNOnHAR(t *testing.T) {
	// Clean-score regime check for the Fig. 7c reference.
	d := dataset.HAR(7, dataset.HARParams{WindowsPerClass: 120, WindowLen: 128, SampleRate: 32})
	train, test := d.Split(0.8, 3)
	k := NewKNN(5)
	if err := k.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	// The generator deliberately overlaps classes so the full-size clean
	// score sits near 0.9 (the Fig. 7c regime); this reduced-size split
	// lands a little lower.
	if s := k.Score(test.X, test.Y); s < 0.75 {
		t.Errorf("HAR clean accuracy %.3f, want > 0.75", s)
	}
}

// explainedVarianceRef is ExplainedVarianceOnIn with the scaler's
// divide loop and one dot product at a time: the loop the four-way
// projection must match bit for bit.
func explainedVarianceRef(p *PCA, x *mat.Dense) float64 {
	n, d := x.Dims()
	vt := p.vectors.T()
	total, kept := 0.0, 0.0
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for a := range row {
			row[a] = (x.At(i, a) - p.scaler.Mean[a]) / p.scaler.Std[a]
		}
		for j := 0; j < p.Components; j++ {
			s := 0.0
			vj := vt.RawRow(j)
			for a, v := range row {
				s += v * vj[a]
			}
			kept += s * s
		}
		for _, v := range row {
			total += v * v
		}
	}
	if total == 0 {
		return 0
	}
	r := kept / total
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	return min(r, 1)
}

// TestExplainedVarianceMatchesOneChain pins the held-out score to
// explainedVarianceRef at component counts on and off a multiple of
// four, centred only (the unit-scale path) and standardized.
func TestExplainedVarianceMatchesOneChain(t *testing.T) {
	xTrain, _ := wsTestData(5, 80, 20)
	xTest, _ := wsTestData(6, 30, 20)
	var ws Workspace
	for _, k := range []int{1, 3, 4, 6, 10} {
		for _, standardize := range []bool{false, true} {
			p := &PCA{Components: k, Standardize: standardize}
			if err := p.FitIn(&ws, xTrain); err != nil {
				t.Fatal(err)
			}
			got, want := p.ExplainedVarianceOnIn(&ws, xTest), explainedVarianceRef(p, xTest)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("k=%d standardize=%v: score %v, one-chain loop %v", k, standardize, got, want)
			}
		}
	}
}
