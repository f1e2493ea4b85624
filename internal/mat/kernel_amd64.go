package mat

// rank4TileAVX is rank4Tile in AVX assembly (kernel_amd64.s): the
// outputs in strips of 16, then 4, then 1, each strip kept in registers
// across all the blocks. blocks >= 1, len(dst) >= 1, and a and b hold
// every element the strides reach; rank4Tile checks them.
//
//go:noescape
func rank4TileAVX(dst, a []float64, as int, b []float64, bs, blocks int)

// panelMulVecAVX is Panels.MulVecInto in AVX assembly for the
// len(dst)/4 full panels in a: four panels (sixteen rows) per pass,
// then one at a time. v holds one entry per column; init is nil or
// holds len(dst) entries.
//
//go:noescape
func panelMulVecAVX(dst, a, v, init []float64)

// scanPairAVX is Panels.ScanPair in AVX assembly over panels
// from..full-1 of a, whose columns number len(qa) == len(qb).
//
//go:noescape
func scanPairAVX(a, qa, qb []float64, from, full int, boundA, boundB float64, sums *[8]float64) int

// cpuid1ECX returns ECX of CPUID leaf 1; xgetbv0 returns the low 32
// bits of XCR0. Both are in kernel_amd64.s.
func cpuid1ECX() uint32
func xgetbv0() uint32

// haveAVX reports whether the CPU has AVX and the operating system
// saves the YMM registers across context switches: CPUID.1:ECX has
// OSXSAVE (bit 27) and AVX (bit 28), and XCR0 enables XMM (bit 1) and
// YMM (bit 2) state.
func haveAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbv0()&6 == 6
}
