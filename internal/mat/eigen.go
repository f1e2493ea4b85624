package mat

import (
	"fmt"
	"math"
)

// EigenScratch holds the working storage of EigenSymIn and
// EigenSymTopKIn — the rotated matrix copy, the accumulated rotation
// matrix, the eigenvalue sorting buffers, and the subspace-iteration
// blocks — so repeated decompositions of same-sized matrices reuse one
// allocation set. The zero value is ready to use.
type EigenScratch struct {
	w, v, vecs     *Dense
	values, sorted []float64
	idx            []int

	// EigenSymTopKIn: transposed basis / image / rotated blocks (p x d,
	// rows are basis vectors so every hot loop is contiguous), the small
	// projected matrix and its transposed rotation, the Ritz value
	// history, and the returned top-k outputs.
	qt, yt, xt  *Dense
	small, smt  *Dense
	ritz, ritzP []float64
	topVals     []float64
	topVecs     *Dense

	// basisValid records whether xt holds the converged subspace basis
	// of the last top-k decomposition (false when it fell back to the
	// full Jacobi path); see Subspace.
	basisValid bool
}

// Subspace returns a copy of the subspace-iteration basis that produced
// the last EigenSymTopK*In result on this scratch — p rows of d entries
// each, orthonormal, spanning the computed dominant subspace — or nil
// when the last decomposition took the full-Jacobi fallback (or none has
// run). Feeding it back as the warm start of a later decomposition of a
// nearby matrix cuts the iteration count to the few rounds needed to
// track the perturbation.
func (s *EigenScratch) Subspace() *Dense {
	if !s.basisValid {
		return nil
	}
	out := NewDense(s.xt.rows, s.xt.cols)
	out.Copy(s.xt)
	return out
}

// EigenSym computes the full eigendecomposition of a symmetric matrix
// using the cyclic Jacobi rotation method. It returns eigenvalues in
// descending order and the matching eigenvectors as the columns of the
// returned matrix. The input is not modified.
//
// Jacobi is O(n^3) per sweep but unconditionally stable and dependency-free,
// which fits the dimensionalities in the paper's PCA benchmark
// (Madelon: 500 features).
func EigenSym(a *Dense) (values []float64, vectors *Dense) {
	return EigenSymIn(nil, a)
}

// EigenSymIn is EigenSym backed by reusable scratch storage: the
// returned slice and matrix alias s and stay valid only until the next
// EigenSymIn call on the same scratch. A nil s allocates fresh storage
// (equivalent to EigenSym).
func EigenSymIn(s *EigenScratch, a *Dense) (values []float64, vectors *Dense) {
	if s == nil {
		s = &EigenScratch{}
	}
	s.basisValid = false
	n := checkSquareSym(a)

	s.w = Reshape(s.w, n, n)
	s.w.Copy(a)
	w := s.w
	s.v = Reshape(s.v, n, n)
	v := s.v
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			row := w.data[i*n : (i+1)*n]
			for j := i + 1; j < n; j++ {
				off += row[j] * row[j]
			}
		}
		if off < 1e-22*frobSq(w) || off == 0 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.data[p*n+q]
				if apq == 0 {
					continue
				}
				app := w.data[p*n+p]
				aqq := w.data[q*n+q]
				// Skip rotations that no longer change the matrix.
				if math.Abs(apq) < 1e-16*(math.Abs(app)+math.Abs(aqq)+1e-300) {
					w.data[p*n+q] = 0
					w.data[q*n+p] = 0
					continue
				}
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				cth := 1 / math.Sqrt(t*t+1)
				sth := t * cth
				rotate(w, v, p, q, cth, sth)
			}
		}
	}

	s.values = growFloats(s.values, n)
	vals := s.values
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue (insertion sort: it is
	// allocation-free, and with the original-index tie break the
	// permutation is fully deterministic).
	s.idx = growInts(s.idx, n)
	idx := s.idx
	for i := range idx {
		idx[i] = i
	}
	for k := 1; k < n; k++ {
		cur := idx[k]
		j := k
		for j > 0 && eigenBefore(vals, cur, idx[j-1]) {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = cur
	}
	s.sorted = growFloats(s.sorted, n)
	sorted := s.sorted
	s.vecs = Reshape(s.vecs, n, n)
	vecs := s.vecs
	for k, i := range idx {
		sorted[k] = vals[i]
		for r := 0; r < n; r++ {
			vecs.Set(r, k, v.At(r, i))
		}
	}
	return sorted, vecs
}

// checkSquareSym validates that a is square and numerically symmetric,
// returning its order. The solver's own inputs are mirrored by
// construction, so an exactly equal pair skips the tolerance
// arithmetic, which could not reject it: its difference is 0, or NaN
// for two equal infinities. A pair with a NaN never panics either.
func checkSquareSym(a *Dense) int {
	n, c := a.Dims()
	if n != c {
		panic(fmt.Sprintf("mat: EigenSym of non-square %dx%d", n, c))
	}
	const symTol = 1e-8
	for i := 0; i < n; i++ {
		row := a.data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			aij, aji := row[j], a.data[j*n+i]
			if aij == aji {
				continue
			}
			d := math.Abs(aij - aji)
			scale := math.Max(math.Abs(aij), math.Abs(aji))
			if d > symTol*math.Max(scale, 1) {
				panic(fmt.Sprintf("mat: EigenSym input not symmetric at (%d,%d)", i, j))
			}
		}
	}
	return n
}

// eigenBefore orders eigenpair a before b: larger eigenvalue first,
// original position first among exact ties.
func eigenBefore(vals []float64, a, b int) bool {
	if vals[a] != vals[b] {
		return vals[a] > vals[b]
	}
	return a < b
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// rotate applies the Jacobi rotation J(p,q,theta) to w (two-sided) and
// accumulates it into the eigenvector matrix v (one-sided). It indexes
// the backing storage directly — the arithmetic is identical to the
// At/Set formulation, element for element, but skips the bounds checks
// that dominated the profile at the paper's 500-feature geometry.
func rotate(w, v *Dense, p, q int, c, s float64) {
	n := w.rows
	wd := w.data
	for i := 0; i < n; i++ {
		base := i * n
		wip := wd[base+p]
		wiq := wd[base+q]
		wd[base+p] = c*wip - s*wiq
		wd[base+q] = s*wip + c*wiq
	}
	wp := wd[p*n : p*n+n]
	wq := wd[q*n : q*n+n]
	for j := 0; j < n; j++ {
		wpj := wp[j]
		wqj := wq[j]
		wp[j] = c*wpj - s*wqj
		wq[j] = s*wpj + c*wqj
	}
	vd := v.data
	for i := 0; i < n; i++ {
		base := i * n
		vip := vd[base+p]
		viq := vd[base+q]
		vd[base+p] = c*vip - s*viq
		vd[base+q] = s*vip + c*viq
	}
}

func frobSq(m *Dense) float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	if s == 0 {
		return 1
	}
	return s
}

// EigenSymTopK computes the k largest eigenvalues (descending) and the
// matching orthonormal eigenvectors (columns of the returned d x k
// matrix) of a symmetric positive-semidefinite matrix — the exact need
// of PCA, which retains a small number of components of a covariance
// matrix. The input is not modified.
//
// The solver is deterministic blocked subspace (orthogonal) iteration:
// a fixed pseudo-random start basis of p = k + 8 vectors is
// repeatedly multiplied by A and re-orthonormalized, with a
// Rayleigh–Ritz projection through the existing Jacobi solver on the
// small p x p problem each step. Total cost is O(d^2 * p * iters)
// instead of Jacobi's O(d^3) per sweep; at the paper's Madelon
// geometry (d=500, k=10) that is a >10x reduction in eigensolver work.
//
// Correctness nets: when p is a large fraction of d the subspace
// iteration saves nothing, so the call falls back to the full Jacobi
// decomposition and returns its leading k pairs; and if the converged
// Ritz spectrum reveals a significantly negative eigenvalue (the input
// was not PSD, so "largest magnitude" — what power iteration finds —
// and "largest value" can disagree), the call also falls back to the
// full decomposition, keeping the by-value contract for every
// symmetric input.
func EigenSymTopK(a *Dense, k int) (values []float64, vectors *Dense) {
	return EigenSymTopKIn(nil, a, k)
}

// EigenSymTopKIn is EigenSymTopK backed by reusable scratch storage:
// the returned slice and matrix alias s and stay valid only until the
// next EigenSym*In call on the same scratch. A warm scratch makes
// repeated decompositions of same-sized problems allocation-free. A
// nil s allocates fresh storage.
func EigenSymTopKIn(s *EigenScratch, a *Dense, k int) (values []float64, vectors *Dense) {
	return EigenSymTopKWarmIn(s, a, k, nil)
}

// EigenSymTopKWarmIn is EigenSymTopKIn with a warm-started basis: the
// rows of warmT (a row-basis as returned by EigenScratch.Subspace — each
// row one d-vector) seed the leading rows of the start basis, and any
// remaining rows are drawn from the same fixed SplitMix64 stream as the
// cold start before the usual orthonormalization. warmT is not modified
// and may be shared (read-only) across goroutines.
//
// The start basis is a pure function of (warmT, d, k): no randomness, no
// dependence on call order — so a warm basis computed once per workload
// preserves run-to-run and worker-count determinism of everything
// downstream. A nil warmT, or one whose column count does not match a
// (it was computed for a different problem), falls back to the cold
// start. Convergence, fallbacks, and results obey the EigenSymTopK
// contract either way; only the iteration count changes.
func EigenSymTopKWarmIn(s *EigenScratch, a *Dense, k int, warmT *Dense) (values []float64, vectors *Dense) {
	if s == nil {
		s = &EigenScratch{}
	}
	s.basisValid = false
	d := checkSquareSym(a)
	if k < 1 || k > d {
		panic(fmt.Sprintf("mat: EigenSymTopK k=%d outside [1,%d]", k, d))
	}
	p := k + 8
	if p > d {
		p = d
	}
	// When the working block approaches the full dimension the subspace
	// iteration costs as much as the direct decomposition; use the
	// oracle.
	if 4*p >= 3*d {
		return eigenTopKViaFull(s, a, k)
	}

	s.qt = Reshape(s.qt, p, d)
	s.yt = Reshape(s.yt, p, d)
	s.xt = Reshape(s.xt, p, d)
	s.small = Reshape(s.small, p, p)
	s.smt = Reshape(s.smt, p, p)
	s.ritz = growFloats(s.ritz, p)
	s.ritzP = growFloats(s.ritzP, p)

	// Deterministic start basis: warm rows first (when provided and
	// shape-compatible), then a fixed SplitMix64 stream for the rest, so
	// the decomposition — and everything downstream (Fig. 7 quality
	// samples) — is identical run to run and worker count to worker
	// count.
	rngState := uint64(0x9e3779b97f4a7c15)
	seeded := 0
	if warmT != nil && warmT.cols == d {
		seeded = min(warmT.rows, p)
		copy(s.qt.data[:seeded*d], warmT.data[:seeded*d])
	}
	for i := seeded * d; i < len(s.qt.data); i++ {
		s.qt.data[i] = splitmixUniform(&rngState)
	}
	orthonormalizeRows(s.qt, &rngState)

	// Stop when two consecutive projections agree on every retained
	// Ritz value to 1e-10 of the dominant eigenvalue. Eigenvalues
	// converge at twice the subspace rate, so this leaves an order of
	// magnitude of margin under the 1e-9 oracle-agreement contract the
	// tests pin, without paying for the last few bulk-spectrum
	// iterations that only polish digits below it.
	const (
		maxIters = 300
		relTol   = 1e-10
	)
	converged := false
	for it := 0; it < maxIters; it++ {
		// Plain power step first: Qt <- orth(Qt * A). Two multiplications
		// per Rayleigh–Ritz projection double the spectral contraction
		// each projection pays for, halving the count of small-Jacobi
		// solves and basis rotations — which the profile shows cost as
		// much as the large multiply itself.
		MulInto(s.yt, s.qt, a)
		s.qt, s.yt = s.yt, s.qt
		orthonormalizeRows(s.qt, &rngState)
		// Projected power step: Yt = Qt * A  (rows of Yt are A*q_j,
		// since A is symmetric).
		MulInto(s.yt, s.qt, a)
		// Projected problem S = Q^T A Q = Qt * Yt^T, built as an exactly
		// symmetric matrix (compute the upper triangle, mirror it).
		projectInto(s.small, s.qt, s.yt)
		ritzVals, u := EigenSymIn(s, s.small)
		copy(s.ritz, ritzVals[:p])
		if it > 0 {
			scale := math.Max(math.Abs(s.ritz[0]), 1e-300)
			maxMove := 0.0
			for i := 0; i < k; i++ {
				if m := math.Abs(s.ritz[i] - s.ritzP[i]); m > maxMove {
					maxMove = m
				}
			}
			converged = maxMove <= relTol*scale
		}
		TransposeInto(s.smt, u)
		if converged || it == maxIters-1 {
			// Ritz vectors: X = Q*U, i.e. Xt = U^T * Qt. Q orthonormal and
			// U orthogonal make X orthonormal directly.
			MulInto(s.xt, s.smt, s.qt)
			break
		}
		// Next basis: orthonormalize A*X = Y*U, i.e. U^T * Yt — the
		// power step applied to the current Ritz vectors.
		MulInto(s.xt, s.smt, s.yt)
		s.qt, s.xt = s.xt, s.qt
		orthonormalizeRows(s.qt, &rngState)
		copy(s.ritzP, s.ritz)
	}

	// Indefinite-input net: a markedly negative Ritz value means the
	// dominant subspace contains large-magnitude negative eigenvalues,
	// so the by-value top k may live outside it. Defer to the oracle.
	negScale := math.Max(math.Abs(s.ritz[0]), 1)
	if s.ritz[p-1] < -1e-8*negScale {
		return eigenTopKViaFull(s, a, k)
	}

	s.topVals = growFloats(s.topVals, k)
	copy(s.topVals, s.ritz[:k])
	s.topVecs = Reshape(s.topVecs, d, k)
	for j := 0; j < k; j++ {
		xj := s.xt.RawRow(j)
		for i := 0; i < d; i++ {
			s.topVecs.data[i*k+j] = xj[i]
		}
	}
	s.basisValid = true
	return s.topVals, s.topVecs
}

// eigenTopKViaFull answers EigenSymTopKIn through the full Jacobi
// decomposition (the oracle path).
func eigenTopKViaFull(s *EigenScratch, a *Dense, k int) ([]float64, *Dense) {
	d, _ := a.Dims()
	vals, vecs := EigenSymIn(s, a)
	s.topVals = growFloats(s.topVals, k)
	copy(s.topVals, vals[:k])
	s.topVecs = Reshape(s.topVecs, d, k)
	for i := 0; i < d; i++ {
		vrow := vecs.data[i*d : i*d+d]
		copy(s.topVecs.data[i*k:i*k+k], vrow[:k])
	}
	return s.topVals, s.topVecs
}

// projectInto sets the p x p matrix small to Qt * Ytᵀ, computing its
// upper triangle and mirroring it, so it is exactly symmetric. Each
// element is one serial dot product in index order; four of them run
// side by side, so their add chains overlap instead of waiting on one
// another.
func projectInto(small, qt, yt *Dense) {
	p := qt.rows
	for i := 0; i < p; i++ {
		qi := qt.RawRow(i)
		j := i
		for ; j+4 <= p; j += 4 {
			v0, v1, v2, v3 := Dot4(qi, yt.RawRow(j), yt.RawRow(j+1), yt.RawRow(j+2), yt.RawRow(j+3))
			for l, v := range [4]float64{v0, v1, v2, v3} {
				small.data[i*p+j+l] = v
				small.data[(j+l)*p+i] = v
			}
		}
		for ; j < p; j++ {
			v := dotUnchecked(qi, yt.RawRow(j))
			small.data[i*p+j] = v
			small.data[j*p+i] = v
		}
	}
}

// orthonormalizeRows makes the rows of qt orthonormal with modified
// Gram–Schmidt. A row that collapses to (numerical) zero after
// projection — a rank-deficient basis, e.g. iterating on a low-rank
// matrix — is replaced by a fresh direction from the deterministic
// stream and re-projected, so the basis always has full row rank.
//
// Each projection ri -= proj·rj runs in one pass with the next dot
// product, ri·r_{j+1} (ri·ri after the last), over the elements it has
// just updated; ri's starting norm and its first projection run side by
// side. Every product and sum is the one the separate passes computed,
// in the same order, so the bits are theirs (pinned by
// TestOrthonormalizeRowsMatchesTwoPass).
func orthonormalizeRows(qt *Dense, rngState *uint64) {
	p, d := qt.Dims()
	for i := 0; i < p; i++ {
		ri := qt.RawRow(i)
		for {
			// next is ri·r_j (the projection) at the top of step j, and
			// ri·ri after the last step.
			first := ri
			if i > 0 {
				first = qt.RawRow(0)
			}
			pre2, next := dot2(ri, ri, first)
			pre := math.Sqrt(pre2)
			for j := 0; j < i; j++ {
				rn := ri
				if j+1 < i {
					rn = qt.RawRow(j + 1)
				}
				if next != 0 {
					next = subScaledDot(ri, qt.RawRow(j), next, rn)
				} else {
					next = dotUnchecked(ri, rn)
				}
			}
			norm := math.Sqrt(next)
			if norm > 1e-14*pre && norm > 0 {
				inv := 1 / norm
				for l := range ri {
					ri[l] *= inv
				}
				break
			}
			for l := 0; l < d; l++ {
				ri[l] = splitmixUniform(rngState)
			}
		}
	}
}

// dotUnchecked is Dot without the length check, for the solver's inner
// loops (operands come from same-width scratch rows by construction).
func dotUnchecked(x, y []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// dot2 returns x·y0 and x·y1, each dotUnchecked's serial sum, computed
// side by side.
func dot2(x, y0, y1 []float64) (float64, float64) {
	y0, y1 = y0[:len(x)], y1[:len(x)]
	var s0, s1 float64
	for i, v := range x {
		s0 += v * y0[i]
		s1 += v * y1[i]
	}
	return s0, s1
}

// subScaledDot sets x[i] -= c*y[i] for every i and returns the dot
// product of the updated x with z, summed serially as dotUnchecked
// would after the update. z may be x itself.
func subScaledDot(x, y []float64, c float64, z []float64) float64 {
	y, z = y[:len(x)], z[:len(x)]
	s := 0.0
	for i := range x {
		x[i] -= c * y[i]
		s += x[i] * z[i]
	}
	return s
}

// splitmixUniform draws the next value in [-0.5, 0.5) from a SplitMix64
// stream — the deterministic, dependency-free generator behind the
// subspace iteration's start basis.
func splitmixUniform(state *uint64) float64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) - 0.5
}
