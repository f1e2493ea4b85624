package mat

import (
	"math"
	"math/rand"
	"testing"
)

// kernelPaths runs f once on each kernel path this CPU can take, as a
// subtest or sub-benchmark: "avx" when the CPU has AVX, then "go".
func kernelPaths[T interface{ Run(string, func(T)) bool }](tb T, f func(T)) {
	saved := UseAVX
	defer func() { UseAVX = saved }()
	if saved {
		tb.Run("avx", f)
	}
	UseAVX = false
	tb.Run("go", f)
}

// wideValue draws a float64 whose magnitude spans 1e-300 to 1e300, with
// about one draw in eight an exact ±0 or a subnormal.
func wideValue(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(16) {
	case 0:
		return sign * 0
	case 1:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	}
	return sign * (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(601)-300))
}

// TestAddRank4AVXMatchesGo pins the assembly kernel to the Go loop bit
// for bit, at every length up to two vector steps plus tails, and at
// the PCA widths 100 and 101. The operands span the whole exponent
// range, so products overflow to ±Inf, sums of opposite infinities give
// NaN and products underflow to subnormals and zero; every output must
// still match, NaN bits included.
func TestAddRank4AVXMatchesGo(t *testing.T) {
	if !UseAVX {
		t.Skip("no AVX on this CPU or GOARCH")
	}
	rng := rand.New(rand.NewSource(83))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 101} {
		for trial := 0; trial < 200; trial++ {
			var b [4][]float64
			for r := range b {
				b[r] = make([]float64, n)
				for j := range b[r] {
					b[r][j] = wideValue(rng)
				}
			}
			a := [4]float64{wideValue(rng), wideValue(rng), wideValue(rng), wideValue(rng)}
			want := make([]float64, n)
			for j := range want {
				want[j] = wideValue(rng)
			}
			got := append([]float64(nil), want...)
			addRank4Go(want, b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
			addRank4AVX(got, b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d trial %d: element %d = %x, Go loop %x", n, trial, j,
						math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

// TestMulIntoKernelPaths checks that MulInto gives the same bits on both
// addRank4 paths: even and odd inner dimensions (so the per-k tail
// runs), odd output widths (so the kernel's scalar tail runs), and zero
// multipliers facing infinities in b (the per-k fallback that keeps
// 0*Inf from injecting NaN).
func TestMulIntoKernelPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	type shape struct{ r, k, c int }
	shapes := []shape{{1, 1, 1}, {3, 4, 5}, {5, 7, 3}, {18, 100, 100}, {18, 101, 99}, {4, 13, 17}}
	var cases [][3]*Dense
	for _, s := range shapes {
		a, b := randMat(rng, s.r, s.k), randMat(rng, s.k, s.c)
		for i := 0; i < s.r*s.k/5; i++ {
			a.Set(rng.Intn(s.r), rng.Intn(s.k), 0)
		}
		for i := 0; i < s.k*s.c/20; i++ {
			b.Set(rng.Intn(s.k), rng.Intn(s.c), math.Inf(1-2*rng.Intn(2)))
		}
		cases = append(cases, [3]*Dense{a, b, nil})
	}
	kernelPaths(t, func(t *testing.T) {
		for ci, c := range cases {
			a, b := c[0], c[1]
			got := MulInto(NewDense(a.rows, b.cols), a, b)
			if c[2] == nil {
				cases[ci][2] = got
				continue
			}
			if !sameDense(got, c[2]) {
				t.Errorf("shape %v: MulInto differs between the addRank4 paths", shapes[ci])
			}
		}
	})
}

// TestCovarianceIntoKernelPaths pins CovarianceInto on both addRank4
// paths to covarianceRef, the loop that recomputed r[b]-mu[b] for every
// product: row counts on and off a multiple of four, odd widths, a
// constant column (exact zeros after centring, which the tail rows
// skip), and the Fig. 7b geometry 1600 x 100.
func TestCovarianceIntoKernelPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var inputs, want []*Dense
	for _, dims := range [][2]int{{2, 1}, {5, 3}, {7, 9}, {40, 6}, {43, 11}, {1600, 100}, {1601, 101}} {
		m := randMat(rng, dims[0], dims[1])
		for i := 0; i < dims[0]; i++ {
			m.Set(i, dims[1]/2, 3.5)
		}
		inputs = append(inputs, m)
		want = append(want, covarianceRef(m))
	}
	kernelPaths(t, func(t *testing.T) {
		for i, m := range inputs {
			got := CovarianceInto(NewDense(m.cols, m.cols), m.Clone(), nil)
			if !sameDense(got, want[i]) {
				t.Errorf("%dx%d: CovarianceInto differs from covarianceRef", m.rows, m.cols)
			}
		}
	})
}

// BenchmarkCovarianceInto is the PCA fit's covariance at the Fig. 7b
// geometry, 1600 x 100. Each op first copies the pristine input back,
// because CovarianceInto centres its input in place; the copy takes
// under a tenth of an op.
func BenchmarkCovarianceInto(b *testing.B) {
	src := randMat(rand.New(rand.NewSource(101)), 1600, 100)
	m := NewDense(1600, 100)
	dst := NewDense(100, 100)
	mu := make([]float64, 100)
	kernelPaths(b, func(b *testing.B) {
		for b.Loop() {
			m.Copy(src)
			CovarianceInto(dst, m, mu)
		}
	})
}

// BenchmarkMulInto is one subspace step of the PCA eigensolver at the
// Fig. 7b geometry: an 18 x 100 basis (10 components plus 8) times the
// 100 x 100 covariance.
func BenchmarkMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(103))
	qt := randMat(rng, 18, 100)
	cov := structuredCovariance(rng, 1600, 100, 10)
	dst := NewDense(18, 100)
	kernelPaths(b, func(b *testing.B) {
		for b.Loop() {
			MulInto(dst, qt, cov)
		}
	})
}
