package mat

// UseAVX selects the amd64 AVX kernels: addRank4's and the two panel
// kernels (Panels.MulVecInto, Panels.ScanPair). Package init sets it
// once from the CPU's features (haveAVX); on every other GOARCH it is
// false. Tests and benchmarks, here and in the packages that call the
// kernels, clear it to run the Go loops, the reference every kernel
// must match bit for bit.
var UseAVX = haveAVX()

// addRank4 applies the rank-4 update shared by MulInto and
// CovarianceInto to every element of dst:
//
//	dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
//
// Each b must hold at least len(dst) elements. The AVX kernel gives one
// output element to each lane and performs the same IEEE operations in
// the same order as the Go loop (no fused multiply-add), so the two
// paths agree bit for bit.
func addRank4(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	if UseAVX {
		n := len(dst)
		addRank4AVX(dst, b0[:n], b1[:n], b2[:n], b3[:n], a0, a1, a2, a3)
		return
	}
	addRank4Go(dst, b0, b1, b2, b3, a0, a1, a2, a3)
}

// addRank4Go is the portable addRank4 and its reference.
func addRank4Go(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0, b1, b2, b3 = b0[:len(dst)], b1[:len(dst)], b2[:len(dst)], b3[:len(dst)]
	for j := range dst {
		dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
	}
}
