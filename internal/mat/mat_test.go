package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	r, c := m.Dims()
	if r != 2 || c != 3 {
		t.Fatalf("Dims = %d,%d", r, c)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("Set/At roundtrip failed")
	}
	if m.At(0, 0) != 0 {
		t.Error("zero init violated")
	}
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if got := m.Row(1); got[0] != 3 || got[1] != 4 {
		t.Errorf("Row(1) = %v", got)
	}
	if got := m.Col(1); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Errorf("Col(1) = %v", got)
	}
	// Row returns a copy; RawRow aliases.
	cp := m.Row(0)
	cp[0] = 99
	if m.At(0, 0) == 99 {
		t.Error("Row did not copy")
	}
	rr := m.RawRow(0)
	rr[0] = 42
	if m.At(0, 0) != 42 {
		t.Error("RawRow did not alias")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims %dx%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("Mul mismatch at (%d,%d): %g", i, j, got.At(i, j))
			}
		}
	}
}

func TestMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(6) + 1
		a := NewDense(n, n)
		id := NewDense(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		got := Mul(a, id)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.At(i, j) != a.At(i, j) {
					t.Fatalf("A*I != A at (%d,%d)", i, j)
				}
			}
		}
	}
}

// mulVec returns a*x as a new vector: the eigen-equation oracle of the
// eigensolver tests.
func mulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic("mat: mulVec dimension mismatch")
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// norm2 returns the Euclidean norm of x.
func norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

func TestMulVecDotNorm(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 2}, {1, 1}})
	got := mulVec(a, []float64{3, 4})
	want := []float64{3, 8, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mulVec[%d] = %g", i, got[i])
		}
	}
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if !almostEq(norm2([]float64{3, 4}), 5, 1e-15) {
		t.Error("norm2 wrong")
	}
	if SqDist([]float64{0, 0}, []float64{3, 4}) != 25 {
		t.Error("SqDist wrong")
	}
}

func TestColMeansStds(t *testing.T) {
	m := FromRows([][]float64{{1, 10}, {3, 10}})
	mu := ColMeans(m)
	if mu[0] != 2 || mu[1] != 10 {
		t.Errorf("means %v", mu)
	}
	sd := ColStds(m)
	if !almostEq(sd[0], math.Sqrt2, 1e-12) || sd[1] != 0 {
		t.Errorf("stds %v", sd)
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated columns.
	m := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	c := Covariance(m)
	if !almostEq(c.At(0, 0), 1, 1e-12) {
		t.Errorf("var(x) = %g", c.At(0, 0))
	}
	if !almostEq(c.At(1, 1), 4, 1e-12) {
		t.Errorf("var(y) = %g", c.At(1, 1))
	}
	if !almostEq(c.At(0, 1), 2, 1e-12) || !almostEq(c.At(1, 0), 2, 1e-12) {
		t.Errorf("cov = %g / %g", c.At(0, 1), c.At(1, 0))
	}
}

func TestCovarianceSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewDense(20, 5)
		for i := 0; i < 20; i++ {
			for j := 0; j < 5; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		c := Covariance(m)
		for i := 0; i < 5; i++ {
			if c.At(i, i) < 0 {
				return false
			}
			for j := 0; j < 5; j++ {
				if c.At(i, j) != c.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	vals, vecs := EigenSym(a)
	want := []float64{3, 2, 1}
	for i := range want {
		if !almostEq(vals[i], want[i], 1e-12) {
			t.Errorf("eigenvalue %d = %g, want %g", i, vals[i], want[i])
		}
	}
	// Eigenvectors of a diagonal matrix are (signed) unit basis vectors.
	for k := 0; k < 3; k++ {
		col := vecs.Col(k)
		if !almostEq(norm2(col), 1, 1e-10) {
			t.Errorf("eigenvector %d not unit: %v", k, col)
		}
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs := EigenSym(a)
	if !almostEq(vals[0], 3, 1e-10) || !almostEq(vals[1], 1, 1e-10) {
		t.Fatalf("eigenvalues %v", vals)
	}
	// Check A v = lambda v for the top eigenvector.
	v0 := vecs.Col(0)
	av := mulVec(a, v0)
	for i := range av {
		if !almostEq(av[i], 3*v0[i], 1e-9) {
			t.Errorf("A v != 3 v at %d: %g vs %g", i, av[i], 3*v0[i])
		}
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	// Random symmetric matrices: V diag(L) V^T must reconstruct A, trace
	// must equal the eigenvalue sum, and V must be orthonormal.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(8) + 2
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs := EigenSym(a)

		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += vals[i]
		}
		if !almostEq(trace, sum, 1e-8*float64(n)) {
			t.Fatalf("trial %d: trace %g vs eigen sum %g", trial, trace, sum)
		}

		// Orthonormality: V^T V = I.
		vtv := Mul(vecs.T(), vecs)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(vtv.At(i, j), want, 1e-8) {
					t.Fatalf("trial %d: V^T V (%d,%d) = %g", trial, i, j, vtv.At(i, j))
				}
			}
		}

		// Reconstruction.
		lam := NewDense(n, n)
		for i := 0; i < n; i++ {
			lam.Set(i, i, vals[i])
		}
		rec := Mul(Mul(vecs, lam), vecs.T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(rec.At(i, j), a.At(i, j), 1e-8) {
					t.Fatalf("trial %d: reconstruction (%d,%d): %g vs %g",
						trial, i, j, rec.At(i, j), a.At(i, j))
				}
			}
		}

		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("trial %d: eigenvalues not descending: %v", trial, vals)
			}
		}
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("asymmetric input did not panic")
		}
	}()
	EigenSym(FromRows([][]float64{{1, 2}, {0, 1}}))
}

func TestEigenSymPSDCovariance(t *testing.T) {
	// Covariance matrices must have non-negative eigenvalues.
	rng := rand.New(rand.NewSource(23))
	m := NewDense(50, 6)
	for i := 0; i < 50; i++ {
		for j := 0; j < 6; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	vals, _ := EigenSym(Covariance(m))
	for i, v := range vals {
		if v < -1e-10 {
			t.Errorf("negative eigenvalue %d of covariance: %g", i, v)
		}
	}
}

func BenchmarkEigenSym50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 50
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigenSym(a)
	}
}

// randMat fills an r x c matrix from rng.
func randMat(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func sameDense(a, b *Dense) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	for i := 0; i < ar; i++ {
		for j := 0; j < ac; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

func TestReshape(t *testing.T) {
	m := Reshape(nil, 3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Reshape(nil) dims = %dx%d", r, c)
	}
	m.Set(2, 3, 9)
	// Shrinking reuses the storage and clears it.
	n := Reshape(m, 2, 2)
	if n != m {
		t.Error("Reshape did not reuse sufficient capacity")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if n.At(i, j) != 0 {
				t.Errorf("Reshape left stale value at (%d,%d)", i, j)
			}
		}
	}
	// Growing past capacity allocates fresh zeroed storage.
	g := Reshape(n, 5, 5)
	if g == n {
		t.Error("Reshape reused insufficient capacity")
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if g.At(i, j) != 0 {
				t.Errorf("grown Reshape not zero at (%d,%d)", i, j)
			}
		}
	}
	mustPanicMat(t, func() { Reshape(nil, 0, 3) })
}

func TestCopyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := randMat(rng, 4, 3)
	dst := NewDense(4, 3)
	dst.Copy(src)
	if !sameDense(dst, src) {
		t.Error("Copy mismatch")
	}
	mustPanicMat(t, func() { NewDense(3, 4).Copy(src) })
}

func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMat(rng, 5, 7)
	b := randMat(rng, 7, 4)
	want := Mul(a, b)
	dst := NewDense(5, 4)
	// Poison dst to verify prior contents are discarded.
	dst.Set(0, 0, 1e9)
	got := MulInto(dst, a, b)
	if got != dst {
		t.Error("MulInto did not return dst")
	}
	if !sameDense(got, want) {
		t.Error("MulInto != Mul")
	}
	mustPanicMat(t, func() { MulInto(NewDense(5, 5), a, b) })
}

func TestApplyIntoMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMat(rng, 20, 6)
	s := &Standardizer{Mean: ColMeans(m), Std: ColStds(m)}
	want := s.Apply(m)
	for i := 0; i < 20; i++ {
		for j := 0; j < 6; j++ {
			if z := (m.At(i, j) - s.Mean[j]) / s.Std[j]; math.Float64bits(want.At(i, j)) != math.Float64bits(z) {
				t.Fatalf("Apply (%d,%d) = %g, want %g", i, j, want.At(i, j), z)
			}
		}
	}
	dst := NewDense(20, 6)
	dst.Set(3, 3, 42)
	if got := s.ApplyInto(dst, m); !sameDense(got, want) {
		t.Error("ApplyInto != Apply")
	}
	mustPanicMat(t, func() { s.ApplyInto(NewDense(19, 6), m) })
}

func TestColMeansStdsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randMat(rng, 30, 5)
	mu := ColMeansInto(make([]float64, 5), m)
	wantMu := ColMeans(m)
	sd := ColStdsInto(make([]float64, 5), m, mu)
	wantSd := ColStds(m)
	for j := 0; j < 5; j++ {
		if math.Float64bits(mu[j]) != math.Float64bits(wantMu[j]) {
			t.Errorf("ColMeansInto[%d] = %g, want %g", j, mu[j], wantMu[j])
		}
		if math.Float64bits(sd[j]) != math.Float64bits(wantSd[j]) {
			t.Errorf("ColStdsInto[%d] = %g, want %g", j, sd[j], wantSd[j])
		}
	}
	mustPanicMat(t, func() { ColMeansInto(make([]float64, 4), m) })
	mustPanicMat(t, func() { ColStdsInto(make([]float64, 4), m, mu) })
}

// TestCovarianceIntoMatchesCovariance pins the two entry points to
// each other and their input contracts: Covariance leaves its argument
// alone, CovarianceInto leaves its input centred on the column means.
func TestCovarianceIntoMatchesCovariance(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := randMat(rng, 40, 6)
	orig := m.Clone()
	want := Covariance(m)
	if !sameDense(m, orig) {
		t.Fatal("Covariance modified its argument")
	}
	dst := NewDense(6, 6)
	dst.Set(0, 0, -77)
	mu := make([]float64, 6)
	if got := CovarianceInto(dst, m, mu); !sameDense(got, want) {
		t.Error("CovarianceInto != Covariance")
	}
	for i := 0; i < 40; i++ {
		for j := 0; j < 6; j++ {
			if c := orig.At(i, j) - mu[j]; math.Float64bits(m.At(i, j)) != math.Float64bits(c) {
				t.Fatalf("CovarianceInto left input (%d,%d) = %g, want centred %g", i, j, m.At(i, j), c)
			}
		}
	}
	// nil mu scratch allocates internally.
	if got := CovarianceInto(NewDense(6, 6), orig.Clone(), nil); !sameDense(got, want) {
		t.Error("CovarianceInto(nil mu) != Covariance")
	}
	mustPanicMat(t, func() { CovarianceInto(NewDense(5, 6), orig, nil) })
}

// covarianceRef is CovarianceInto as it was before the input was
// centred in place and the rank-4 updates went through a kernel: the
// reference its bits are checked against. m is not modified.
func covarianceRef(m *Dense) *Dense {
	mu := ColMeans(m)
	d := m.cols
	c := NewDense(d, d)
	i := 0
	for ; i+4 <= m.rows; i += 4 {
		r0 := m.data[i*d : (i+1)*d]
		r1 := m.data[(i+1)*d : (i+2)*d]
		r2 := m.data[(i+2)*d : (i+3)*d]
		r3 := m.data[(i+3)*d : (i+4)*d]
		for a := 0; a < d; a++ {
			ma := mu[a]
			da0, da1, da2, da3 := r0[a]-ma, r1[a]-ma, r2[a]-ma, r3[a]-ma
			crow := c.data[a*d : (a+1)*d]
			for b := a; b < d; b++ {
				mb := mu[b]
				crow[b] += (da0*(r0[b]-mb) + da1*(r1[b]-mb)) +
					(da2*(r2[b]-mb) + da3*(r3[b]-mb))
			}
		}
	}
	for ; i < m.rows; i++ {
		row := m.data[i*d : (i+1)*d]
		for a := 0; a < d; a++ {
			da := row[a] - mu[a]
			if da == 0 {
				continue
			}
			crow := c.data[a*d : (a+1)*d]
			for b := a; b < d; b++ {
				crow[b] += da * (row[b] - mu[b])
			}
		}
	}
	n1 := float64(m.rows - 1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := c.data[a*d+b] / n1
			c.data[a*d+b] = v
			c.data[b*d+a] = v
		}
	}
	return c
}

// TestEigenSymInMatchesEigenSym verifies the scratch-backed decomposition
// is bit-identical to the fresh one, including across reuses of the same
// scratch at different sizes.
func TestEigenSymInMatchesEigenSym(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var scratch EigenScratch
	for _, n := range []int{8, 5, 12, 12, 3} {
		a := Covariance(randMat(rng, 3*n, n))
		wantVals, wantVecs := EigenSym(a)
		gotVals, gotVecs := EigenSymIn(&scratch, a)
		for i := range wantVals {
			if math.Float64bits(gotVals[i]) != math.Float64bits(wantVals[i]) {
				t.Fatalf("n=%d: eigenvalue %d differs: %g vs %g", n, i, gotVals[i], wantVals[i])
			}
		}
		if !sameDense(gotVecs, wantVecs) {
			t.Fatalf("n=%d: eigenvectors differ", n)
		}
	}
}

// TestEigenSymInZeroAlloc pins the workspace contract: a warm scratch
// decomposes without touching the allocator.
func TestEigenSymInZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := Covariance(randMat(rng, 60, 10))
	var scratch EigenScratch
	EigenSymIn(&scratch, a) // warm up
	if allocs := testing.AllocsPerRun(10, func() { EigenSymIn(&scratch, a) }); allocs != 0 {
		t.Errorf("warm EigenSymIn allocates %v times per run, want 0", allocs)
	}
}

// TestEigenSymTieOrder pins the deterministic tie break: exactly equal
// eigenvalues keep their diagonal order.
func TestEigenSymTieOrder(t *testing.T) {
	a := FromRows([][]float64{{2, 0, 0}, {0, 2, 0}, {0, 0, 1}})
	vals, vecs := EigenSym(a)
	if vals[0] != 2 || vals[1] != 2 || vals[2] != 1 {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// The two tied unit eigenvectors keep original index order: e0, e1.
	if vecs.At(0, 0) == 0 || vecs.At(1, 1) == 0 {
		t.Errorf("tied eigenvectors reordered: %v %v", vecs.Col(0), vecs.Col(1))
	}
}

func mustPanicMat(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// randCovariance builds the covariance of an n x d random matrix — a
// PSD input shaped like the PCA workloads.
func randCovariance(rng *rand.Rand, n, d int) *Dense {
	return Covariance(randMat(rng, n, d))
}

// structuredCovariance builds a covariance with a strong low-rank
// structure over a noise bulk — the Madelon-like spectrum the Fig. 7b
// PCA benchmark decomposes (a few dominant directions, then a
// Marchenko-Pastur-style bulk).
func structuredCovariance(rng *rand.Rand, n, d, strong int) *Dense {
	x := NewDense(n, d)
	for i := 0; i < n; i++ {
		base := make([]float64, strong)
		for j := range base {
			base[j] = rng.NormFloat64() * float64(4+j)
			x.Set(i, j, base[j])
		}
		for j := strong; j < d; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	return Covariance(x)
}

// eigenVecAgree reports whether two unit eigenvector columns span the
// same direction (sign-canonical comparison) within tol.
func eigenVecAgree(a *Dense, aCol int, b *Dense, bCol int, tol float64) bool {
	n, _ := a.Dims()
	// Canonical sign: make the largest-magnitude entry of each positive.
	sa, sb := 1.0, 1.0
	maxA, maxB := 0.0, 0.0
	for i := 0; i < n; i++ {
		if v := math.Abs(a.At(i, aCol)); v > maxA {
			maxA = v
			sa = math.Copysign(1, a.At(i, aCol))
		}
		if v := math.Abs(b.At(i, bCol)); v > maxB {
			maxB = v
			sb = math.Copysign(1, b.At(i, bCol))
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(sa*a.At(i, aCol)-sb*b.At(i, bCol)) > tol {
			return false
		}
	}
	return true
}

// TestEigenSymTopKMatchesFull pins the subspace solver against the
// full Jacobi oracle: on PSD covariance inputs the top-k eigenvalues
// must agree within 1e-9 (relative to the dominant eigenvalue), the
// retained explained-variance mass must match to the same precision,
// and the eigenvectors must satisfy the eigen equation.
func TestEigenSymTopKMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		cov *Dense
		k   int
	}{
		{randCovariance(rng, 300, 60), 5},
		{randCovariance(rng, 500, 100), 10},
		{structuredCovariance(rng, 400, 80, 8), 6},
		{structuredCovariance(rng, 800, 120, 10), 10},
		{randCovariance(rng, 100, 12), 3},  // small d: internal Jacobi fallback
		{randCovariance(rng, 100, 20), 15}, // k close to d: fallback
	}
	for ci, c := range cases {
		d, _ := c.cov.Dims()
		wantVals, _ := EigenSym(c.cov)
		gotVals, gotVecs := EigenSymTopK(c.cov, c.k)
		if len(gotVals) != c.k {
			t.Fatalf("case %d: %d values, want %d", ci, len(gotVals), c.k)
		}
		if r, cc := gotVecs.Dims(); r != d || cc != c.k {
			t.Fatalf("case %d: vectors %dx%d, want %dx%d", ci, r, cc, d, c.k)
		}
		scale := math.Max(math.Abs(wantVals[0]), 1)
		topWant, topGot := 0.0, 0.0
		for i := 0; i < c.k; i++ {
			if math.Abs(gotVals[i]-wantVals[i]) > 1e-9*scale {
				t.Errorf("case %d: eigenvalue %d = %.15g, oracle %.15g", ci, i, gotVals[i], wantVals[i])
			}
			topWant += wantVals[i]
			topGot += gotVals[i]
		}
		if math.Abs(topGot-topWant) > 1e-9*scale*float64(c.k) {
			t.Errorf("case %d: explained mass %.15g, oracle %.15g", ci, topGot, topWant)
		}
		// Eigen equation residual per pair. Ritz values converge at
		// twice the subspace rate, so vectors inside a near-degenerate
		// bulk carry ~sqrt(valueTol) of rotation — hence the looser
		// vector tolerance next to the 1e-9 eigenvalue check above.
		for j := 0; j < c.k; j++ {
			col := gotVecs.Col(j)
			av := mulVec(c.cov, col)
			for i := range av {
				if math.Abs(av[i]-gotVals[j]*col[i]) > 1e-5*scale {
					t.Fatalf("case %d: eigenpair %d residual %g at %d", ci, j,
						av[i]-gotVals[j]*col[i], i)
				}
			}
		}
		// Orthonormal columns.
		for a := 0; a < c.k; a++ {
			for b := a; b < c.k; b++ {
				dot := Dot(gotVecs.Col(a), gotVecs.Col(b))
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(dot-want) > 1e-9 {
					t.Fatalf("case %d: V^T V (%d,%d) = %g", ci, a, b, dot)
				}
			}
		}
	}
}

// TestEigenSymTopKSignCanonicalVectors compares eigenvectors
// coordinate-wise against the Jacobi oracle on a well-separated
// spectrum, where each eigendirection is unique up to sign.
func TestEigenSymTopKSignCanonicalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cov := structuredCovariance(rng, 1000, 90, 6)
	k := 4 // well inside the strong, separated part of the spectrum
	_, wantVecs := EigenSym(cov)
	_, gotVecs := EigenSymTopK(cov, k)
	for j := 0; j < k; j++ {
		if !eigenVecAgree(gotVecs, j, wantVecs, j, 1e-6) {
			t.Errorf("eigenvector %d differs from oracle beyond sign", j)
		}
	}
}

// TestEigenSymTopKDeterministic pins run-to-run determinism: the fixed
// start basis must make repeated decompositions bit-identical, scratch
// reuse or not.
func TestEigenSymTopKDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cov := structuredCovariance(rng, 300, 70, 5)
	vals1, vecs1 := EigenSymTopK(cov, 8)
	var scratch EigenScratch
	EigenSymTopKIn(&scratch, randCovariance(rng, 100, 30), 8) // dirty the scratch
	vals2, vecs2 := EigenSymTopKIn(&scratch, cov, 8)
	for i := range vals1 {
		if math.Float64bits(vals1[i]) != math.Float64bits(vals2[i]) {
			t.Fatalf("eigenvalue %d differs across runs: %.17g vs %.17g", i, vals1[i], vals2[i])
		}
	}
	if !sameDense(vecs1, vecs2) {
		t.Fatal("eigenvectors differ across runs")
	}
}

// TestEigenSymTopKIndefiniteFallsBack pins the by-value contract on a
// non-PSD input whose dominant-magnitude eigenvalue is negative: the
// solver must detect the negative Ritz spectrum and defer to the full
// decomposition instead of returning magnitude-ordered pairs.
func TestEigenSymTopKIndefiniteFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	d := 40
	// A = Q D Q^T with D = diag(-50, spread of small positives).
	q := randMat(rng, d, d)
	var s EigenScratch
	_, basis := EigenSymIn(&s, Covariance(q)) // any orthonormal basis
	a := NewDense(d, d)
	for i := 0; i < d; i++ {
		lam := 1.0 + float64(d-i)*0.1
		if i == d-1 {
			lam = -50
		}
		for r := 0; r < d; r++ {
			for c := 0; c < d; c++ {
				a.Set(r, c, a.At(r, c)+lam*basis.At(r, i)*basis.At(c, i))
			}
		}
	}
	// Symmetrize exactly against accumulated rounding.
	for r := 0; r < d; r++ {
		for c := r + 1; c < d; c++ {
			v := (a.At(r, c) + a.At(c, r)) / 2
			a.Set(r, c, v)
			a.Set(c, r, v)
		}
	}
	wantVals, _ := EigenSym(a)
	gotVals, _ := EigenSymTopK(a, 3)
	scale := math.Max(math.Abs(wantVals[0]), math.Abs(wantVals[len(wantVals)-1]))
	for i := 0; i < 3; i++ {
		if math.Abs(gotVals[i]-wantVals[i]) > 1e-9*scale {
			t.Errorf("eigenvalue %d = %g, want by-value %g", i, gotVals[i], wantVals[i])
		}
	}
	if gotVals[0] < 0 {
		t.Errorf("top eigenvalue %g is the negative dominant-magnitude one", gotVals[0])
	}
}

// TestEigenSymTopKZeroAllocWarm pins the scratch contract: a warm
// scratch decomposes without touching the allocator.
func TestEigenSymTopKZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	cov := randCovariance(rng, 300, 60)
	var scratch EigenScratch
	EigenSymTopKIn(&scratch, cov, 5) // warm up
	if allocs := testing.AllocsPerRun(5, func() { EigenSymTopKIn(&scratch, cov, 5) }); allocs != 0 {
		t.Errorf("warm EigenSymTopKIn allocates %v times per run, want 0", allocs)
	}
}

// TestEigenSymTopKValidation covers the panic contracts.
func TestEigenSymTopKValidation(t *testing.T) {
	cov := Covariance(randMat(rand.New(rand.NewSource(1)), 10, 4))
	mustPanicMat(t, func() { EigenSymTopK(cov, 0) })
	mustPanicMat(t, func() { EigenSymTopK(cov, 5) })
	mustPanicMat(t, func() { EigenSymTopK(NewDense(3, 4), 1) })
	mustPanicMat(t, func() { EigenSymTopK(FromRows([][]float64{{1, 2}, {0, 1}}), 1) })
}

// TestTransposeInto pins the blocked transpose against the naive
// element walk, across shapes that exercise full tiles, ragged edges,
// and thin matrices.
func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dims := range [][2]int{{1, 1}, {3, 7}, {32, 32}, {33, 65}, {100, 23}, {5, 200}} {
		m := randMat(rng, dims[0], dims[1])
		got := TransposeInto(NewDense(dims[1], dims[0]), m)
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				if math.Float64bits(got.At(j, i)) != math.Float64bits(m.At(i, j)) {
					t.Fatalf("%v: mismatch at (%d,%d)", dims, i, j)
				}
			}
		}
		if !sameDense(m.T(), got) {
			t.Fatalf("%v: T() != TransposeInto", dims)
		}
	}
	mustPanicMat(t, func() { TransposeInto(NewDense(2, 2), NewDense(2, 3)) })
}

// TestSqDistBounded pins the early-abandon contract: a completed
// accumulation is bit-identical to SqDist, an abandoned one only
// happens when the true distance is >= bound.
func TestSqDistBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{1, 7, 8, 9, 16, 40, 100} {
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
				y[i] = rng.NormFloat64()
			}
			full := SqDist(x, y)
			bound := full * (0.25 + 1.5*rng.Float64())
			got, ok := SqDistBounded(x, y, bound)
			if ok {
				if math.Float64bits(got) != math.Float64bits(full) {
					t.Fatalf("n=%d: completed distance %g != SqDist %g", n, got, full)
				}
				if got >= bound {
					t.Fatalf("n=%d: ok with %g >= bound %g", n, got, bound)
				}
			} else {
				if full < bound {
					t.Fatalf("n=%d: abandoned but full %g < bound %g", n, full, bound)
				}
			}
		}
	}
	if d, ok := SqDistBounded([]float64{1, 2}, []float64{1, 2}, math.Inf(1)); !ok || d != 0 {
		t.Errorf("identical vectors: %g, %v", d, ok)
	}
	mustPanicMat(t, func() { SqDistBounded([]float64{1}, []float64{1, 2}, 1) })
}

// benchEigenCov builds the bench covariance once per geometry.
func benchEigenCov(b *testing.B, d int) *Dense {
	b.Helper()
	rng := rand.New(rand.NewSource(71))
	return structuredCovariance(rng, 1600, d, 10)
}

// BenchmarkEigenTopK measures the top-10 subspace solver at the
// default (d=100) and paper (d=500) Madelon geometries; the Full
// variants run the Jacobi oracle on the same inputs — the before/after
// pair of the README's kernel table.
func BenchmarkEigenTopK(b *testing.B) {
	for _, d := range []int{100, 500} {
		cov := benchEigenCov(b, d)
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			var scratch EigenScratch
			EigenSymTopKIn(&scratch, cov, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				EigenSymTopKIn(&scratch, cov, 10)
			}
		})
	}
}

// BenchmarkEigenFull is the full-decomposition baseline at the default
// Madelon geometry (the d=500 Jacobi takes ~10s per op; bench the
// paper geometry explicitly via -bench EigenFull500 when needed).
func BenchmarkEigenFull(b *testing.B) {
	cov := benchEigenCov(b, 100)
	var scratch EigenScratch
	EigenSymIn(&scratch, cov)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigenSymIn(&scratch, cov)
	}
}

// BenchmarkEigenFull500 is the paper-geometry Jacobi baseline; slow,
// excluded from -bench=. smokes by its name.
func BenchmarkEigenFull500(b *testing.B) {
	cov := benchEigenCov(b, 500)
	var scratch EigenScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigenSymIn(&scratch, cov)
	}
}

// BenchmarkTranspose compares the naive column-stride walk against the
// tiled TransposeInto at a cache-hostile size.
func BenchmarkTranspose(b *testing.B) {
	rng := rand.New(rand.NewSource(73))
	m := randMat(rng, 1000, 1000)
	dst := NewDense(1000, 1000)
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TransposeInto(dst, m)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < 1000; r++ {
				row := m.RawRow(r)
				for c := 0; c < 1000; c++ {
					dst.data[c*1000+r] = row[c]
				}
			}
		}
	})
}

// TestApplyIntoUnitScale pins ApplyInto's subtract-only path, taken
// when every Std is 1, to the divide loop, and checks that a single
// non-unit scale still divides. The inputs and means hold ±0, ±Inf,
// subnormals and NaN.
func TestApplyIntoUnitScale(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), sub, -3 * sub, math.NaN(), 1.5, -2e300, 1e-310}
	n := len(vals)
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, vals[(i+j)%n])
		}
	}
	mean := make([]float64, n)
	for j := range mean {
		mean[j] = vals[(3*j+1)%n]
	}
	for _, scale := range []float64{1, 0.5, 3, sub} {
		std := make([]float64, n)
		for j := range std {
			std[j] = 1
		}
		std[n/2] = scale
		s := &Standardizer{Mean: mean, Std: std}
		got := s.ApplyInto(NewDense(n, n), m)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := (m.At(i, j) - mean[j]) / std[j]
				if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(want) && !(math.IsNaN(g) && math.IsNaN(want)) {
					t.Fatalf("Std[%d] = %g: (%d,%d) = %x, divide loop %x", n/2, scale, i, j,
						math.Float64bits(g), math.Float64bits(want))
				}
			}
		}
	}
}

// TestCheckSquareSym pins the symmetry check: an asymmetric pair beyond
// the tolerance panics with the message naming it, a pair within it
// does not, and neither do NaN entries (their difference fails every
// compare) or infinite pairs, exactly equal or not.
func TestCheckSquareSym(t *testing.T) {
	panicMsg := func(a *Dense) (msg any) {
		defer func() { msg = recover() }()
		checkSquareSym(a)
		return nil
	}
	asym := FromRows([][]float64{{1, 2, 0}, {2, 1, 5}, {0, 4, 1}})
	if msg := panicMsg(asym); msg != "mat: EigenSym input not symmetric at (1,2)" {
		t.Errorf("asymmetric input: panic %v", msg)
	}
	if msg := panicMsg(NewDense(2, 3)); msg != "mat: EigenSym of non-square 2x3" {
		t.Errorf("non-square input: panic %v", msg)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, rows := range [][][]float64{
		{{1, 2 + 1e-9}, {2, 1}},
		{{1, nan}, {nan, 1}},
		{{1, nan}, {3, nan}},
		{{inf, inf}, {inf, -inf}},
		{{1, inf}, {-inf, 1}},
		{{1, inf}, {7, 1}},
	} {
		if msg := panicMsg(FromRows(rows)); msg != nil {
			t.Errorf("%v: panic %v", rows, msg)
		}
	}
}

// orthonormalizeRowsRef is orthonormalizeRows with a separate pass for
// every dot product and every projection: the loop the fused one must
// match bit for bit.
func orthonormalizeRowsRef(qt *Dense, rngState *uint64) {
	p, d := qt.Dims()
	for i := 0; i < p; i++ {
		ri := qt.RawRow(i)
		for {
			pre := math.Sqrt(dotUnchecked(ri, ri))
			for j := 0; j < i; j++ {
				rj := qt.RawRow(j)
				proj := dotUnchecked(ri, rj)
				if proj == 0 {
					continue
				}
				for l := range ri {
					ri[l] -= proj * rj[l]
				}
			}
			norm := math.Sqrt(dotUnchecked(ri, ri))
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

// TestEigenLoopsMatchTwoPass pins the eigensolver's interleaved loops
// to their one-chain forms: the fused Gram–Schmidt on a random basis, a
// rank-deficient one (a combination of earlier rows, a zero row and a
// duplicate, which collapse and are refilled from the stream) and one
// whose rows are exactly orthogonal (every projection is 0 and
// skipped); and the four-way Rayleigh–Ritz projection at block sizes on
// and off a multiple of four.
func TestEigenLoopsMatchTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	random := randMat(rng, 18, 100)
	deficient := randMat(rng, 7, 10)
	for l := 0; l < 10; l++ {
		deficient.Set(3, l, 2*deficient.At(0, l)-deficient.At(1, l))
		deficient.Set(4, l, 0)
		deficient.Set(6, l, deficient.At(2, l))
	}
	orthogonal := NewDense(5, 12)
	for i := 0; i < 5; i++ {
		orthogonal.Set(i, 2*i, rng.NormFloat64())
		orthogonal.Set(i, 2*i+1, rng.NormFloat64())
	}
	for name, basis := range map[string]*Dense{"random": random, "deficient": deficient, "orthogonal": orthogonal} {
		got, want := basis.Clone(), basis.Clone()
		gotState, wantState := uint64(131), uint64(131)
		orthonormalizeRows(got, &gotState)
		orthonormalizeRowsRef(want, &wantState)
		if !sameDense(got, want) || gotState != wantState {
			t.Errorf("%s basis: fused Gram–Schmidt differs from the two-pass loop", name)
		}
		if refilled := wantState != 131; refilled != (name == "deficient") {
			t.Errorf("%s basis: refilled %v", name, refilled)
		}
	}
	for _, p := range []int{1, 4, 7, 18} {
		qt, yt := randMat(rng, p, 30), randMat(rng, p, 30)
		got := NewDense(p, p)
		projectInto(got, qt, yt)
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				v := dotUnchecked(qt.RawRow(i), yt.RawRow(j))
				if math.Float64bits(got.At(i, j)) != math.Float64bits(v) || math.Float64bits(got.At(j, i)) != math.Float64bits(v) {
					t.Fatalf("p=%d: projection (%d,%d) differs from its dot product", p, i, j)
				}
			}
		}
	}
}
