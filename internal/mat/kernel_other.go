//go:build !amd64

package mat

func haveAVX() bool { return false }

// The AVX kernels exist only so their callers compile everywhere;
// UseAVX is always false off amd64, so they are never called.

func rank4TileAVX(dst, a []float64, as int, b []float64, bs, blocks int) {
	rank4TileGo(dst, a, as, b, bs, blocks)
}

func panelMulVecAVX(dst, a, v, init []float64) { panelMulVecGo(dst, a, v, init, 0) }

func scanPairAVX(a, qa, qb []float64, from, full int, boundA, boundB float64, sums *[8]float64) int {
	return scanPairGo(a, qa, qb, from, full, boundA, boundB, sums)
}
