package ml

import (
	"math"

	"faultmem/internal/mat"
)

// Workspace is a reusable scratch bundle for the workspace-backed fit
// and scoring paths (FitIn / ScoreIn / PredictIn /
// ExplainedVarianceOnIn). It bundles every buffer the three Table 1
// models allocate during training — the standardized-matrix copy,
// elastic-net residual/coefficient/column-norm slices, PCA covariance
// and Jacobi rotation scratch, and the KNN neighbor buffer plus cloned
// training matrix — so a Monte-Carlo loop that retrains a model per
// trial (the Fig. 7 engine) reuses one allocation set per goroutine
// instead of reallocating per trial.
//
// The zero value is ready to use. A Workspace is not safe for
// concurrent use; the Fig. 7 engine carries one per shard, next to the
// per-shard memstore.Workspace.
//
// A workspace-backed model borrows the workspace: its fitted state
// (coefficients, components, training set) aliases workspace storage
// and stays valid only until the next FitIn on the same workspace.
// Models that must outlive the workspace should use the plain Fit path.
type Workspace struct {
	// Standardizer backing (shared by all three models — one live
	// workspace-backed model at a time).
	mean, std []float64
	scaler    mat.Standardizer

	// Standardized copies of the training and evaluation matrices.
	z, zEval *mat.Dense

	// Prediction output buffer (PredictIn / ScoreIn).
	preds []float64

	// Elastic net: residual, coefficients, per-column squared norms,
	// plus the Gram-mode buffers (scaled Gram matrix, feature/target
	// correlations, running G*b products) and the active-coordinate
	// list.
	resid, coef, colSq []float64
	gram               *mat.Dense
	zty, gb            []float64
	active             []int

	// PCA: covariance matrix, its column-mean scratch, the eigensolver
	// scratch (Jacobi + top-k subspace blocks; the retained component
	// matrix lives inside it), and the transposed component matrix of
	// ExplainedVarianceOnIn.
	cov   *mat.Dense
	covMu []float64
	eig   mat.EigenScratch
	vecT  *mat.Dense

	// KNN: cloned training matrix and its 4-row panel copy, label copy,
	// neighbor buffers (the paired narrow-feature scan tracks two queries
	// at once).
	train       *mat.Dense
	trainPanels mat.Panels
	labels      []float64
	neighbors   []neighbor
	neighborsB  []neighbor
}

// floats resizes *p to length n, reusing its storage when the capacity
// suffices. Contents are unspecified; callers overwrite fully.
func floats(p *[]float64, n int) []float64 {
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return *p
}

// EigenSubspace returns a copy of the converged eigensolver subspace
// basis of the last PCA fit on this workspace, or nil when none is
// available (no fit yet, or the solver took its full-decomposition
// fallback). The result is suitable as PCA.Warm for later fits on
// nearby data.
func (ws *Workspace) EigenSubspace() *mat.Dense { return ws.eig.Subspace() }

// fitScaler learns the column transform of x into the workspace and
// returns a pointer to it, valid until the next FitIn on ws. It always
// centres on the column means. With standardize it also divides by the
// sample standard deviations, where a column with zero or non-finite
// spread gets 1 and so passes through centred only; without, the scale
// is 1 (raw features).
func (ws *Workspace) fitScaler(x *mat.Dense, standardize bool) *mat.Standardizer {
	_, d := x.Dims()
	mean := mat.ColMeansInto(floats(&ws.mean, d), x)
	std := floats(&ws.std, d)
	if standardize {
		mat.ColStdsInto(std, x, mean)
		for j, sd := range std {
			if sd == 0 || math.IsNaN(sd) || math.IsInf(sd, 0) {
				std[j] = 1
			}
		}
	} else {
		for j := range std {
			std[j] = 1
		}
	}
	ws.scaler = mat.Standardizer{Mean: mean, Std: std}
	return &ws.scaler
}
