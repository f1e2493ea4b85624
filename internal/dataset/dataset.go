// Package dataset provides seeded synthetic stand-ins for the three UCI
// datasets of Table 1: a wine-quality-like regression set, a
// Madelon-like feature-selection set, and an accelerometer
// activity-recognition set. Each generator matches the dimensionality,
// size class, and statistical character of its original, so the
// protection-scheme comparisons of Fig. 7 exercise the same code paths
// and exhibit the same orderings.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"faultmem/internal/mat"
	"faultmem/internal/stats"
)

// Task labels what the target column means.
type Task uint8

const (
	// Regression targets are real-valued.
	Regression Task = iota
	// Classification targets are integer class labels stored as float64.
	Classification
)

// Dataset is a feature matrix with a target vector.
type Dataset struct {
	Name string
	Task Task
	// X is the n x d feature matrix.
	X *mat.Dense
	// Y holds n targets (quality score, class label, ...).
	Y []float64
}

// Samples returns the number of rows.
func (d *Dataset) Samples() int {
	n, _ := d.X.Dims()
	return n
}

// Features returns the number of feature columns.
func (d *Dataset) Features() int {
	_, f := d.X.Dims()
	return f
}

// Split partitions the dataset into train and test subsets by a shuffled
// index split (the paper uses a 0.8:0.2 ratio, §5.2).
func (d *Dataset) Split(trainFrac float64, seed int64) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("dataset: train fraction %g outside (0,1)", trainFrac))
	}
	n := d.Samples()
	idx := stats.NewRand(seed).Perm(n)
	nTrain := int(float64(n) * trainFrac)
	if nTrain < 1 || nTrain >= n {
		panic("dataset: degenerate split")
	}
	return d.subset(idx[:nTrain], "/train"), d.subset(idx[nTrain:], "/test")
}

func (d *Dataset) subset(idx []int, suffix string) *Dataset {
	sub := &Dataset{
		Name: d.Name + suffix,
		Task: d.Task,
		X:    mat.NewDense(len(idx), d.Features()),
		Y:    make([]float64, len(idx)),
	}
	for i, src := range idx {
		row := d.X.RawRow(src)
		for j, v := range row {
			sub.X.Set(i, j, v)
		}
		sub.Y[i] = d.Y[src]
	}
	return sub
}

// WithData returns a copy of the dataset metadata around replacement
// feature/target data (used after a faulty-memory round trip).
func (d *Dataset) WithData(x *mat.Dense, y []float64) *Dataset {
	xr, _ := x.Dims()
	if xr != len(y) {
		panic("dataset: X/Y length mismatch")
	}
	return &Dataset{Name: d.Name, Task: d.Task, X: x, Y: y}
}

// clamp limits v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Wine generates the wine-quality-like regression set: 1599 samples of 11
// physicochemical features with an integer taste-preference score in
// [3, 8], mirroring the red-wine dataset of Cortez et al. [18]. The score
// depends linearly on a few features (alcohol up, volatile acidity down,
// sulphates up) plus taster noise, giving a clean-data linear-model R²
// around 0.3-0.4 like the original.
func Wine(seed int64) *Dataset {
	const n = 1599
	rng := stats.NewRand(seed)
	d := &Dataset{Name: "wine", Task: Regression, X: mat.NewDense(n, 11), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		alcohol := clamp(rng.NormFloat64()*1.07+10.42, 8.4, 14.9)
		volatile := clamp(rng.NormFloat64()*0.18+0.53, 0.12, 1.58)
		sulphates := clamp(rng.NormFloat64()*0.17+0.66, 0.33, 2.0)
		citric := clamp(rng.NormFloat64()*0.19+0.27, 0, 1)
		fixedAcid := clamp(rng.NormFloat64()*1.74+8.32, 4.6, 15.9)
		residSugar := clamp(expish(rng, 2.54, 1.4), 0.9, 15.5)
		chlorides := clamp(expish(rng, 0.087, 0.047), 0.012, 0.61)
		freeSO2 := clamp(expish(rng, 15.9, 10.5), 1, 72)
		totalSO2 := clamp(freeSO2*2.1+expish(rng, 13, 15), 6, 289)
		density := clamp(0.9967+0.0004*(fixedAcid-8.32)/1.74-0.0005*(alcohol-10.42)/1.07+rng.NormFloat64()*0.0012, 0.990, 1.004)
		ph := clamp(3.31-0.06*(fixedAcid-8.32)/1.74+rng.NormFloat64()*0.13, 2.74, 4.01)

		d.X.Set(i, 0, fixedAcid)
		d.X.Set(i, 1, volatile)
		d.X.Set(i, 2, citric)
		d.X.Set(i, 3, residSugar)
		d.X.Set(i, 4, chlorides)
		d.X.Set(i, 5, freeSO2)
		d.X.Set(i, 6, totalSO2)
		d.X.Set(i, 7, density)
		d.X.Set(i, 8, ph)
		d.X.Set(i, 9, sulphates)
		d.X.Set(i, 10, alcohol)

		latent := 0.34*(alcohol-10.42)/1.07 -
			0.30*(volatile-0.53)/0.18 +
			0.18*(sulphates-0.66)/0.17 -
			0.10*(totalSO2-46)/33 +
			0.06*(citric-0.27)/0.19 +
			0.62*rng.NormFloat64()
		d.Y[i] = clamp(roundHalf(5.64+0.85*latent), 3, 8)
	}
	return d
}

// expish draws a positively skewed value with the given mean and spread
// (lognormal-flavoured: mean + spread*(exp(N(0,0.6^2)) - 1)).
func expish(rng *rand.Rand, mean, spread float64) float64 {
	return mean + spread*(math.Exp(rng.NormFloat64()*0.6)-1)
}

func roundHalf(v float64) float64 {
	return math.Round(v)
}
