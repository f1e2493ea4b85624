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

// FuzzRank4Tile pins the AVX rank-4 tile to its Go body on drawn
// shapes: output widths 1..40 (so the 16- and 4-wide strips and the
// single-element tail all run), 1..2*tileBlocks blocks, and multiplier
// and row strides 1..64. The operands come from wideValue, whose
// magnitudes overflow products to ±Inf and underflow them to subnormals
// and zero, with a few ±Inf and NaN operands planted among them. Every
// output must keep its bits; NaN results need only agree on being NaN.
func FuzzRank4Tile(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(7), uint8(0), uint8(15))  // 16 wide, 8 blocks: MulInto's shape
	f.Add(int64(2), uint8(39), uint8(2), uint8(39), uint8(39)) // CovarianceInto's: both strides d
	f.Add(int64(3), uint8(6), uint8(0), uint8(2), uint8(1))    // a 4-wide strip and a 3-element tail
	f.Add(int64(4), uint8(0), uint8(15), uint8(63), uint8(63)) // one output, 16 blocks
	f.Fuzz(func(t *testing.T, seed int64, width, blocks, as, bs uint8) {
		if !UseAVX {
			t.Skip("no AVX on this CPU or GOARCH")
		}
		n := 1 + int(width)%40
		nb := 1 + int(blocks)%(2*tileBlocks)
		sa, sb := 1+int(as)%64, 1+int(bs)%64
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, (4*nb-1)*sa+1)
		b := make([]float64, (4*nb-1)*sb+n)
		got := make([]float64, n)
		for _, s := range [][]float64{a, b, got} {
			for i := range s {
				s[i] = wideValue(rng)
			}
			for k := rng.Intn(3); k > 0; k-- {
				s[rng.Intn(len(s))] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
			}
		}
		want := append([]float64(nil), got...)
		rank4TileAVX(got, a, sa, b, sb, nb)
		rank4TileGo(want, a, sa, b, sb, nb)
		for j := range want {
			if !sameFloat(got[j], want[j]) {
				t.Fatalf("width %d, %d blocks, strides %d and %d: element %d = %x, Go body %x",
					n, nb, sa, sb, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	})
}

// TestRank4TileChecksOperands checks that rank4Tile refuses operands too
// short for its strides before either path reads them.
func TestRank4TileChecksOperands(t *testing.T) {
	a, b, dst := make([]float64, 13), make([]float64, 4*5), make([]float64, 5)
	kernelPaths(t, func(t *testing.T) {
		rank4Tile(dst, a, 4, b, 5, 1)
		mustPanicMat(t, func() { rank4Tile(dst, a[:12], 4, b, 5, 1) })
		mustPanicMat(t, func() { rank4Tile(dst, a, 4, b[:19], 5, 1) })
		mustPanicMat(t, func() { rank4Tile(dst, a, 4, b, 5, 2) })
		mustPanicMat(t, func() { rank4Tile(dst, a, -1, b, 5, 1) })
	})
}

// mulIntoRef is MulInto as it was before the tile kernel: one row of a
// at a time, its summation index in blocks of four, each block one
// rank-4 update of the whole output row, and a block that holds a zero
// multiplier (and the last len%4 indices) one index at a time, skipping
// the zeros. It is the reference MulInto's bits are checked against.
func mulIntoRef(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols)
	bc := b.cols
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*bc : (i+1)*bc]
		perK := func(k0, k1 int) {
			for k := k0; k < k1; k++ {
				if av := arow[k]; av != 0 {
					for j, bv := range b.data[k*bc : (k+1)*bc] {
						orow[j] += av * bv
					}
				}
			}
		}
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				perK(k, k+4)
				continue
			}
			b0, b1, b2, b3 := b.data[k*bc:], b.data[(k+1)*bc:], b.data[(k+2)*bc:], b.data[(k+3)*bc:]
			for j := range orow {
				orow[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
			}
		}
		perK(k, len(arow))
	}
	return out
}

// TestMulIntoKernelPaths pins MulInto on both tile paths to mulIntoRef:
// inner dimensions on and off a multiple of four and of the 32-deep
// panel (so the per-k tail and partial panels run), odd output widths
// (so the kernel's 4-wide strips and scalar tail run), dense operands
// (runs of eight blocks per tile call), and operands with zero
// multipliers facing infinities in b (the per-k blocks that keep 0*Inf
// from injecting NaN, in their place between tile calls).
func TestMulIntoKernelPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	type shape struct{ r, k, c int }
	shapes := []shape{{1, 1, 1}, {3, 4, 5}, {5, 7, 3}, {18, 100, 100}, {18, 101, 99}, {4, 13, 17}, {2, 70, 37}, {18, 18, 100}}
	var as, bs, want []*Dense
	for _, s := range shapes {
		for _, sparse := range []bool{false, true} {
			a, b := randMat(rng, s.r, s.k), randMat(rng, s.k, s.c)
			if sparse {
				for i := 0; i < s.r*s.k/5; i++ {
					a.Set(rng.Intn(s.r), rng.Intn(s.k), 0)
				}
				for i := 0; i < s.k*s.c/20; i++ {
					b.Set(rng.Intn(s.k), rng.Intn(s.c), math.Inf(1-2*rng.Intn(2)))
				}
			}
			as, bs, want = append(as, a), append(bs, b), append(want, mulIntoRef(a, b))
		}
	}
	kernelPaths(t, func(t *testing.T) {
		for i, a := range as {
			if got := MulInto(NewDense(a.rows, bs[i].cols), a, bs[i]); !sameDense(got, want[i]) {
				t.Errorf("%dx%d * %dx%d: MulInto differs from mulIntoRef", a.rows, a.cols, bs[i].rows, bs[i].cols)
			}
		}
	})
}

// TestCovarianceIntoKernelPaths pins CovarianceInto on both tile paths
// to covarianceRef, the loop that recomputed r[b]-mu[b] for every
// product: row counts on and off a multiple of four, odd widths, a
// constant column (exact zeros after centring, which the tail rows
// skip), row counts off a multiple of the 32-row panel, and the Fig. 7b
// geometry 1600 x 100.
func TestCovarianceIntoKernelPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var inputs, want []*Dense
	for _, dims := range [][2]int{{2, 1}, {5, 3}, {7, 9}, {40, 6}, {43, 11}, {75, 17}, {1600, 100}, {1601, 101}} {
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
