package mat

import "fmt"

// Panels is a matrix in the 4-row panel layout of the panel kernels.
// Panel p holds rows 4p..4p+3 column by column: element (4p+l, j) sits
// at data[4*(p*cols+j)+l], so one 256-bit load reads column j of four
// rows and row 4p+l always sits in lane l. The rows a last, partial
// panel lacks are zero. The zero value is an empty matrix; Pack fills
// it, reusing its storage.
type Panels struct {
	rows, cols int
	data       []float64
}

// Pack stores the rows x cols row-major matrix a (at least rows*cols
// elements) in p, reusing p's storage when its capacity suffices, and
// returns p.
func (p *Panels) Pack(a []float64, rows, cols int) *Panels {
	if rows < 0 || cols < 0 || len(a) < rows*cols {
		panic(fmt.Sprintf("mat: cannot pack %d elements as %dx%d", len(a), rows, cols))
	}
	n := (rows + 3) / 4 * 4 * cols
	if cap(p.data) < n {
		p.data = make([]float64, n)
	}
	p.rows, p.cols, p.data = rows, cols, p.data[:n]
	if cols == 0 {
		return p
	}
	for i := 0; i < rows; i++ {
		lane := p.data[(i&^3)*cols+i&3:]
		for j, f := range a[i*cols : (i+1)*cols] {
			lane[4*j] = f
		}
	}
	for i := rows; i&3 != 0; i++ {
		lane := p.data[(i&^3)*cols+i&3:]
		for j := 0; j < cols; j++ {
			lane[4*j] = 0
		}
	}
	return p
}

// PackDense stores m in p (see Pack) and returns p.
func (p *Panels) PackDense(m *Dense) *Panels { return p.Pack(m.data, m.rows, m.cols) }

// Dims returns the row and column counts.
func (p *Panels) Dims() (rows, cols int) { return p.rows, p.cols }

// MulVecInto sets dst[i] = init[i] + Σ_j a[i][j]·v[j] for every row i
// of the packed matrix a, where v holds one entry per column and a nil
// init starts every row at +0. Each row's sum runs serially in column
// order, as a one-row loop would, so every output keeps that loop's
// bits on both paths: the AVX kernel computes one row per lane, sixteen
// rows at a time, with the Go loop's operations in its order and no
// fused multiply-add. dst may be init; neither may overlap v.
func (p *Panels) MulVecInto(dst, v, init []float64) {
	dst, v = dst[:p.rows], v[:p.cols]
	if init != nil {
		init = init[:p.rows]
	}
	from := 0
	if full := p.rows / 4; UseAVX && full > 0 {
		var in []float64
		if init != nil {
			in = init[:4*full]
		}
		panelMulVecAVX(dst[:4*full], p.data[:4*full*p.cols], v, in)
		from = full
	}
	panelMulVecGo(dst, p.data, v, init, from)
}

// panelMulVecGo is MulVecInto's Go loop for the panels from `from` on,
// the path off amd64 and the AVX kernel's reference: the rows of
// dst[4*from:] from the panels in a, one sum per lane.
func panelMulVecGo(dst, a, v, init []float64, from int) {
	cols := len(v)
	for i := 4 * from; i < len(dst); i += 4 {
		var s [4]float64
		if init != nil {
			copy(s[:], init[i:])
		}
		s[0], s[1], s[2], s[3] = panelSums(a[i*cols:(i+4)*cols], v, s[0], s[1], s[2], s[3])
		copy(dst[i:], s[:])
	}
}

// panelSums returns s_l + Σ_j blk[4j+l]·v[j] for the four lanes l of
// the panel blk, each a serial sum in column order. It is a function of
// its own so that its loop keeps every operand in a register.
func panelSums(blk, v []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	for _, f := range v {
		if len(blk) < 4 { // never true; it lets the compiler drop the bounds checks
			break
		}
		s0 += blk[0] * f
		s1 += blk[1] * f
		s2 += blk[2] * f
		s3 += blk[3] * f
		blk = blk[4:]
	}
	return s0, s1, s2, s3
}

// ScanPair is the distance scan of a two-query nearest-neighbour
// search. From full panel `from` on, it finds the first panel that is
// not abandoned and returns its index, with the squared distances of
// its four rows to the query rows qa and qb in sums: sums[l] =
// Σ_j (qa[j] − a[4p+l][j])² and sums[4+l] the same for qb, each summed
// serially in column order. A panel is abandoned when all four sums for
// qa are >= boundA and all four for qb are >= boundB, checked twice:
// on the partial sums after its first cols/2 columns (squared terms
// never make a partial sum smaller, so each of its eight distances
// would reach its bound too), and on the full sums after the last. So
// every panel returned holds a row below a bound. A NaN bound abandons
// nothing. When every panel from `from` on is abandoned, ScanPair
// returns the number of full panels, rows/4; rows past the last full
// panel are the caller's to scan. qa and qb hold at least cols entries.
// The AVX kernel computes one row per lane with the Go loop's
// operations in its order, so both paths return the same panel and the
// same bits.
func (p *Panels) ScanPair(from int, qa, qb []float64, boundA, boundB float64, sums *[8]float64) int {
	full := p.rows / 4
	if from < 0 {
		panic(fmt.Sprintf("mat: ScanPair from panel %d", from))
	}
	if from >= full {
		return full
	}
	qa, qb = qa[:p.cols], qb[:p.cols]
	if UseAVX {
		return scanPairAVX(p.data[:4*full*p.cols], qa, qb, from, full, boundA, boundB, sums)
	}
	return scanPairGo(p.data, qa, qb, from, full, boundA, boundB, sums)
}

// scanPairGo is ScanPair's Go loop over panels from..full-1 of a, the
// path off amd64 and the AVX kernel's reference.
func scanPairGo(a, qa, qb []float64, from, full int, boundA, boundB float64, sums *[8]float64) int {
	cols := len(qa)
	qb = qb[:cols]
panels:
	for p := from; p < full; p++ {
		blk := a[4*p*cols : 4*(p+1)*cols]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		// One loop body, run to two stops, each followed by the abandon
		// check: between columns cols/2-1 and cols/2, and after the last.
		j, stop, checked := 0, cols/2, false
		for {
			for ; j < stop; j++ {
				c := blk[4*j : 4*j+4 : 4*j+4]
				qav, qbv := qa[j], qb[j]
				da0 := qav - c[0]
				a0 += da0 * da0
				da1 := qav - c[1]
				a1 += da1 * da1
				da2 := qav - c[2]
				a2 += da2 * da2
				da3 := qav - c[3]
				a3 += da3 * da3
				db0 := qbv - c[0]
				b0 += db0 * db0
				db1 := qbv - c[1]
				b1 += db1 * db1
				db2 := qbv - c[2]
				b2 += db2 * db2
				db3 := qbv - c[3]
				b3 += db3 * db3
			}
			if a0 >= boundA && a1 >= boundA && a2 >= boundA && a3 >= boundA &&
				b0 >= boundB && b1 >= boundB && b2 >= boundB && b3 >= boundB {
				continue panels
			}
			if checked {
				break
			}
			checked, stop = true, cols
		}
		*sums = [8]float64{a0, a1, a2, a3, b0, b1, b2, b3}
		return p
	}
	return full
}
