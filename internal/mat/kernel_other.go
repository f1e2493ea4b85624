//go:build !amd64

package mat

func haveAVX() bool { return false }

// The AVX kernels exist only so their callers compile everywhere;
// UseAVX is always false off amd64, so they are never called.

func addRank4AVX(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	addRank4Go(dst, b0, b1, b2, b3, a0, a1, a2, a3)
}

func panelMulVecAVX(dst, a, v, init []float64) { panelMulVecGo(dst, a, v, init, 0) }

func scanPairAVX(a, qa, qb []float64, from, full int, boundA, boundB float64, sums *[8]float64) int {
	return scanPairGo(a, qa, qb, from, full, boundA, boundB, sums)
}
