//go:build !amd64

package mat

func haveAVX() bool { return false }

// addRank4AVX exists only so addRank4 compiles everywhere; useAVX is
// always false off amd64, so it is never called.
func addRank4AVX(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	addRank4Go(dst, b0, b1, b2, b3, a0, a1, a2, a3)
}
