package ml

import (
	"fmt"
	"math"

	"faultmem/internal/mat"
)

// PCA is principal component analysis via the covariance matrix and the
// top-k symmetric eigensolver (deterministic subspace iteration with a
// Rayleigh–Ritz projection; mat.EigenSymTopK). Only the retained
// Components eigenpairs are computed — the full Jacobi decomposition
// remains the automatic fallback when Components is a large fraction of
// the feature count.
type PCA struct {
	// Components is the number of principal components to retain.
	Components int
	// Standardize selects correlation-matrix PCA (zero mean / unit
	// variance). Scikit-Learn's PCA — the paper's implementation [21] —
	// only centers the data, so the Fig. 7 experiments leave this false.
	Standardize bool
	// Warm optionally seeds the eigensolver's start basis (a row-basis
	// as returned by Workspace.EigenSubspace, typically from a fit on
	// nearby — e.g. clean — data), cutting subspace-iteration rounds.
	// It is read-only to the fit, so one warm basis may be shared across
	// goroutines. The fitted model is bit-identical only for equal Warm
	// values; see mat.EigenSymTopKWarmIn for the determinism contract.
	Warm *mat.Dense

	scaler   *mat.Standardizer
	vectors  *mat.Dense // d x Components, orthonormal columns
	values   []float64  // the Components retained eigenvalues, descending
	totalVar float64    // trace of the covariance = sum of all eigenvalues
}

// NewPCA returns a model retaining k components on centered raw features
// (Scikit-Learn-compatible behaviour).
func NewPCA(k int) *PCA { return &PCA{Components: k} }

// Fit learns the principal subspace from the training set.
func (p *PCA) Fit(x *mat.Dense) error {
	return p.FitIn(nil, x)
}

// FitIn is Fit backed by a reusable workspace: the standardized copy,
// covariance matrix, Jacobi rotation scratch, and component matrix all
// come from ws, so a warm workspace makes repeated fits
// allocation-free. The result is bit-identical to Fit. The fitted model
// borrows ws (see Workspace); a nil ws allocates fresh buffers.
func (p *PCA) FitIn(ws *Workspace, x *mat.Dense) error {
	if ws == nil {
		ws = &Workspace{}
	}
	n, d := x.Dims()
	if n < 2 {
		return fmt.Errorf("ml: PCA needs at least 2 samples, have %d", n)
	}
	if p.Components < 1 || p.Components > d {
		return fmt.Errorf("ml: PCA components %d outside [1,%d]", p.Components, d)
	}
	p.scaler = ws.fitScaler(x, p.Standardize)
	ws.z = p.scaler.ApplyInto(mat.Reshape(ws.z, n, d), x)
	// CovarianceInto centres ws.z in place; the fit reads it no further.
	ws.cov = mat.CovarianceInto(mat.Reshape(ws.cov, d, d), ws.z, floats(&ws.covMu, d))
	// The total variance is the covariance trace — the full eigenvalue
	// sum without the full spectrum, which is what lets the solver stop
	// at the top Components pairs.
	p.totalVar = 0
	for i := 0; i < d; i++ {
		p.totalVar += ws.cov.At(i, i)
	}
	vals, vecs := mat.EigenSymTopKWarmIn(&ws.eig, ws.cov, p.Components, p.Warm)
	p.values = vals
	p.vectors = vecs
	return nil
}

// ExplainedVarianceRatio returns the training-eigenvalue ratio: the sum
// of the retained eigenvalues (negative values from numerical noise
// clamp to zero) over the covariance trace — the total variance, which
// equals the full eigenvalue sum without needing the discarded part of
// the spectrum.
func (p *PCA) ExplainedVarianceRatio() float64 {
	if p.values == nil {
		panic("ml: PCA.ExplainedVarianceRatio before Fit")
	}
	top := 0.0
	for i, v := range p.values {
		if i >= p.Components {
			break
		}
		if v > 0 {
			top += v
		}
	}
	if p.totalVar <= 0 {
		return 0
	}
	r := top / p.totalVar
	if r > 1 {
		r = 1
	}
	return r
}

// ExplainedVarianceOn measures how much of the variance of a held-out
// set the learned subspace captures: 1 - ||Z - VV'Z||² / ||Z||², where Z
// is x standardized by the model's scaler and V the component matrix.
// This is the quality metric of the PCA row in Table 1 as evaluated in
// Fig. 7b: a model trained on fault-corrupted data keeps less of the
// clean test data's variance.
func (p *PCA) ExplainedVarianceOn(x *mat.Dense) float64 {
	return p.ExplainedVarianceOnIn(nil, x)
}

// ExplainedVarianceOnIn is ExplainedVarianceOn backed by a reusable
// workspace (standardized evaluation copy and projection buffer);
// bit-identical to ExplainedVarianceOn. A nil ws allocates fresh
// buffers.
func (p *PCA) ExplainedVarianceOnIn(ws *Workspace, x *mat.Dense) float64 {
	if p.vectors == nil {
		panic("ml: PCA.ExplainedVarianceOn before Fit")
	}
	if ws == nil {
		ws = &Workspace{}
	}
	n, d := x.Dims()
	ws.zEval = p.scaler.ApplyInto(mat.Reshape(ws.zEval, n, d), x)
	z := ws.zEval
	total, kept := 0.0, 0.0
	k := p.Components
	// Project against the transposed component matrix: each component
	// becomes one contiguous row, so the per-sample projections are
	// plain dot products instead of stride-k column walks, four of them
	// side by side; kept still adds their squares in component order.
	ws.vecT = mat.TransposeInto(mat.Reshape(ws.vecT, k, d), p.vectors)
	vt := ws.vecT
	for i := 0; i < n; i++ {
		row := z.RawRow(i)
		j := 0
		for ; j+4 <= k; j += 4 {
			s0, s1, s2, s3 := mat.Dot4(row, vt.RawRow(j), vt.RawRow(j+1), vt.RawRow(j+2), vt.RawRow(j+3))
			kept += s0 * s0
			kept += s1 * s1
			kept += s2 * s2
			kept += s3 * s3
		}
		for ; j < k; j++ {
			s := mat.Dot(row, vt.RawRow(j))
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
	if r > 1 {
		r = 1
	}
	return r
}

// Transform projects x onto the retained components (rows = samples,
// cols = component scores).
func (p *PCA) Transform(x *mat.Dense) *mat.Dense {
	if p.vectors == nil {
		panic("ml: PCA.Transform before Fit")
	}
	return mat.Mul(p.scaler.Apply(x), p.vectors)
}

// Eigenvalues returns a copy of the retained (top-Components)
// eigenvalues in descending order. TotalVariance reports the full
// eigenvalue sum.
func (p *PCA) Eigenvalues() []float64 { return append([]float64(nil), p.values...) }

// TotalVariance returns the trace of the training covariance matrix —
// the sum of all eigenvalues, retained or not.
func (p *PCA) TotalVariance() float64 {
	if p.values == nil {
		panic("ml: PCA.TotalVariance before Fit")
	}
	return p.totalVar
}
