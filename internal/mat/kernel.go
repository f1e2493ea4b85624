package mat

import "fmt"

// UseAVX selects the amd64 AVX kernels: the rank-4 tile's and the two
// panel kernels (Panels.MulVecInto, Panels.ScanPair). Package init sets
// it once from the CPU's features (haveAVX); on every other GOARCH it is
// false. Tests and benchmarks, here and in the packages that call the
// kernels, clear it to run the Go loops, the reference every kernel
// must match bit for bit.
var UseAVX = haveAVX()

// tileBlocks is the depth of one rank-4 tile in four-row blocks: MulInto
// walks its summation index, and CovarianceInto its input rows, in
// panels of 4*tileBlocks, so the AVX kernel keeps each strip of outputs
// in registers across up to eight rank-4 updates.
const tileBlocks = 8

// rank4Tile applies blocks consecutive rank-4 updates to every element
// of dst, block q after block q-1:
//
//	dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
//
// where block q's multiplier l (0..3) is a[(4q+l)*as] and its row l is
// b[(4q+l)*bs:], of which the first len(dst) elements are read. The
// strides as and bs let one kernel serve MulInto (a row of A, stride 1;
// rows of B, stride B's width) and CovarianceInto (a column of the
// centred input, stride its width; its rows, the same stride).
//
// The AVX kernel gives one output element to each lane and keeps a
// strip of 16 (then 4, then 1) outputs in registers across all the
// blocks, with the Go loop's IEEE operations in its order (no fused
// multiply-add), so the two paths agree bit for bit.
func rank4Tile(dst, a []float64, as int, b []float64, bs, blocks int) {
	if blocks <= 0 || len(dst) == 0 {
		return
	}
	last := 4*blocks - 1
	if as < 0 || bs < 0 || len(a) <= last*as || len(b) < last*bs+len(dst) {
		panic(fmt.Sprintf("mat: rank-4 tile of %d blocks, strides %d and %d, over %d and %d elements",
			blocks, as, bs, len(a), len(b)))
	}
	if UseAVX {
		rank4TileAVX(dst, a, as, b, bs, blocks)
		return
	}
	rank4TileGo(dst, a, as, b, bs, blocks)
}

// rank4TileGo is the portable rank4Tile and its reference: one block at
// a time, each over the whole of dst.
func rank4TileGo(dst, a []float64, as int, b []float64, bs, blocks int) {
	n := len(dst)
	for q := 0; q < blocks; q++ {
		a0, a1, a2, a3 := a[4*q*as], a[(4*q+1)*as], a[(4*q+2)*as], a[(4*q+3)*as]
		b0, b1, b2, b3 := b[4*q*bs:][:n], b[(4*q+1)*bs:][:n], b[(4*q+2)*bs:][:n], b[(4*q+3)*bs:][:n]
		for j := range dst {
			dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
		}
	}
}
