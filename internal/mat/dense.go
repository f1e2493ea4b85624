// Package mat implements the small dense linear-algebra kernel the
// data-mining benchmarks need: matrices, covariance, standardization, and
// a Jacobi eigensolver for symmetric matrices (used by PCA).
//
// It is deliberately minimal and allocation-transparent; everything is
// float64 and row-major, except Panels, the 4-row panel layout of the
// matrix-vector product and the two-query distance scan.
//
// Three loops have an assembly kernel for amd64 CPUs with AVX, chosen
// once at package init (UseAVX): the register-tiled rank-4 update that
// MulInto and CovarianceInto share (rank4Tile), Panels.MulVecInto and
// Panels.ScanPair. Each Go loop is the reference its kernel must match
// bit for bit, and the code that runs everywhere else.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense creates an r x c zero matrix. It panics on non-positive
// dimensions.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the
// data.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows of empty data")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d (len %d, want %d)", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic("mat: row index out of range")
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RawRow returns row i as a slice aliasing the matrix storage; mutations
// write through. Intended for hot loops (KNN distance computation).
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic("mat: row index out of range")
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// SetRow copies vals into row i. It panics when vals is not exactly one
// row wide. Together with RawRow it lets hot loops refill a scratch
// matrix in place instead of allocating a new one per trial.
func (m *Dense) SetRow(i int, vals []float64) {
	if i < 0 || i >= m.rows {
		panic("mat: row index out of range")
	}
	if len(vals) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d, want %d", len(vals), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], vals)
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic("mat: column index out of range")
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	n := NewDense(m.rows, m.cols)
	copy(n.data, m.data)
	return n
}

// Copy overwrites m with src. It panics on dimension mismatch.
func (m *Dense) Copy(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: Copy dimension mismatch %dx%d vs %dx%d",
			m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// Reshape returns an r x c zero matrix, reusing m's backing storage when
// its capacity suffices (m may be nil or any prior shape). It is the
// growth primitive behind the reusable fit workspaces: a warm workspace
// matrix is resized and cleared without touching the allocator. The
// clear is deliberate even when callers overwrite every cell — it is a
// single linear memset, negligible next to any fit's compute, and it
// keeps stale-data bugs impossible.
func Reshape(m *Dense, r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	if m == nil || cap(m.data) < r*c {
		return NewDense(r, c)
	}
	m.rows, m.cols = r, c
	m.data = m.data[:r*c]
	clear(m.data)
	return m
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	return TransposeInto(NewDense(m.cols, m.rows), m)
}

// TransposeInto writes the transpose of m into dst (which must be
// cols x rows) and returns dst. dst must not alias m. The walk is
// tiled: a naive transpose strides one full row length between
// consecutive writes, missing cache on every store once the matrix
// outgrows L1; the 32x32 tiles keep both the read and write footprints
// inside a few KB regardless of matrix size.
func TransposeInto(dst, m *Dense) *Dense {
	if dst.rows != m.cols || dst.cols != m.rows {
		panic(fmt.Sprintf("mat: TransposeInto destination %dx%d, want %dx%d",
			dst.rows, dst.cols, m.cols, m.rows))
	}
	const tile = 32
	for ii := 0; ii < m.rows; ii += tile {
		iMax := ii + tile
		if iMax > m.rows {
			iMax = m.rows
		}
		for jj := 0; jj < m.cols; jj += tile {
			jMax := jj + tile
			if jMax > m.cols {
				jMax = m.cols
			}
			for i := ii; i < iMax; i++ {
				row := m.data[i*m.cols : (i+1)*m.cols]
				for j := jj; j < jMax; j++ {
					dst.data[j*dst.cols+i] = row[j]
				}
			}
		}
	}
	return dst
}

// Mul returns a*b. It panics on dimension mismatch.
func Mul(a, b *Dense) *Dense {
	return MulInto(NewDense(a.rows, b.cols), a, b)
}

// MulInto computes a*b into dst (which must be a.rows x b.cols) and
// returns dst. Prior contents of dst are discarded; dst must not alias
// a or b (it is zeroed before the inputs are read). It panics on
// dimension mismatch.
func MulInto(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulInto destination %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	out := dst
	clear(out.data)
	bc, kc := b.cols, a.cols
	// The summation index runs in ascending panels of 4*tileBlocks, each
	// split into blocks of four: one rank4Tile call adds a run of blocks
	// to an output row, whose elements stay in registers across the run
	// on the AVX path, and each block's four products combine pairwise
	// so the adds form a short tree instead of a serial dependency chain
	// (the chain's add latency, not flop throughput, bounds the naive
	// loop). A block containing a zero multiplier takes the per-k loop
	// in its place in the sequence, so exact zeros still skip their row
	// of b (0 * Inf must not inject NaN). The panel is the outer loop so
	// its rows of b stay in cache across the rows of a.
	blocked := kc &^ 3
	for k0 := 0; k0 < blocked; k0 += 4 * tileBlocks {
		kEnd := min(k0+4*tileBlocks, blocked)
		for i := 0; i < a.rows; i++ {
			arow := a.data[i*kc : (i+1)*kc]
			orow := out.data[i*bc : (i+1)*bc]
			for k := k0; k < kEnd; {
				run := k
				for run < kEnd && arow[run] != 0 && arow[run+1] != 0 && arow[run+2] != 0 && arow[run+3] != 0 {
					run += 4
				}
				if run > k {
					rank4Tile(orow, arow[k:], 1, b.data[k*bc:], bc, (run-k)/4)
					k = run
				}
				if k < kEnd {
					mulIntoTail(orow, arow[k:k+4], b.data[k*bc:], bc)
					k += 4
				}
			}
		}
	}
	for i := 0; i < a.rows; i++ {
		mulIntoTail(out.data[i*bc:(i+1)*bc], a.data[i*kc+blocked:(i+1)*kc], b.data[blocked*bc:], bc)
	}
	return out
}

// mulIntoTail accumulates avs[k]*b.row(k) into orow one k at a time —
// the scalar remainder of MulInto's blocked loop. bdata starts at the
// row matching avs[0].
func mulIntoTail(orow, avs, bdata []float64, bc int) {
	for k, av := range avs {
		if av == 0 {
			continue
		}
		brow := bdata[k*bc : k*bc+bc]
		for j, bv := range brow {
			orow[j] += av * bv
		}
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Dot4 returns x·y0, x·y1, x·y2 and x·y3, each the serial sum Dot
// computes, run side by side so the four add chains overlap. It panics
// unless every y has x's length.
func Dot4(x, y0, y1, y2, y3 []float64) (float64, float64, float64, float64) {
	if len(y0) != len(x) || len(y1) != len(x) || len(y2) != len(x) || len(y3) != len(x) {
		panic("mat: Dot4 length mismatch")
	}
	var s0, s1, s2, s3 float64
	for i, v := range x {
		s0 += v * y0[i]
		s1 += v * y1[i]
		s2 += v * y2[i]
		s3 += v * y3[i]
	}
	return s0, s1, s2, s3
}

// SqDist returns the squared Euclidean distance between x and y.
func SqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: SqDist length mismatch")
	}
	s := 0.0
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// SqDistBounded is SqDist with early abandonment: it accumulates the
// squared distance in the same term order as SqDist but gives up as
// soon as the partial sum reaches bound (squared terms only grow the
// sum, so the full distance is guaranteed to be >= bound too). It
// returns (exact distance, true) when the distance is strictly below
// bound, and (a partial sum, false) otherwise. The checks run every
// few terms, so a completed accumulation is bit-identical to SqDist —
// this is what lets KNN prune candidates without changing any kept
// neighbor distance (its blocked scan inlines the same contract four
// rows at a time; the scalar remainder path calls this directly).
func SqDistBounded(x, y []float64, bound float64) (float64, bool) {
	if len(x) != len(y) {
		panic("mat: SqDistBounded length mismatch")
	}
	const block = 8
	s := 0.0
	i := 0
	for ; i+block <= len(x); i += block {
		for j := i; j < i+block; j++ {
			d := x[j] - y[j]
			s += d * d
		}
		if s >= bound {
			return s, false
		}
	}
	for ; i < len(x); i++ {
		d := x[i] - y[i]
		s += d * d
	}
	if s >= bound {
		return s, false
	}
	return s, true
}

// ColMeans returns the per-column means of m.
func ColMeans(m *Dense) []float64 {
	return ColMeansInto(make([]float64, m.cols), m)
}

// ColMeansInto computes the per-column means of m into mu (which must
// have length cols) and returns mu.
func ColMeansInto(mu []float64, m *Dense) []float64 {
	if len(mu) != m.cols {
		panic(fmt.Sprintf("mat: ColMeansInto length %d, want %d", len(mu), m.cols))
	}
	clear(mu)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			mu[j] += v
		}
	}
	for j := range mu {
		mu[j] /= float64(m.rows)
	}
	return mu
}

// ColStds returns the per-column sample standard deviations of m
// (ddof = 1; a zero-variance column reports 0).
func ColStds(m *Dense) []float64 {
	return ColStdsInto(make([]float64, m.cols), m, ColMeans(m))
}

// ColStdsInto computes the per-column sample standard deviations of m
// (ddof = 1) into sd, given the precomputed column means mu, and returns
// sd. Both slices must have length cols.
func ColStdsInto(sd []float64, m *Dense, mu []float64) []float64 {
	if len(sd) != m.cols || len(mu) != m.cols {
		panic(fmt.Sprintf("mat: ColStdsInto lengths %d/%d, want %d", len(sd), len(mu), m.cols))
	}
	clear(sd)
	if m.rows < 2 {
		return sd
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			d := v - mu[j]
			sd[j] += d * d
		}
	}
	for j := range sd {
		sd[j] = math.Sqrt(sd[j] / float64(m.rows-1))
	}
	return sd
}

// Standardizer centers and scales columns to zero mean / unit variance,
// remembering the transform so it can be applied to held-out data. The
// ml package fits it (column means, and standard deviations with zero
// or non-finite spreads replaced by 1).
type Standardizer struct {
	Mean, Std []float64
}

// Apply returns a standardized copy of m using the learned transform.
func (s *Standardizer) Apply(m *Dense) *Dense {
	out := NewDense(m.rows, m.cols)
	return s.ApplyInto(out, m)
}

// ApplyInto writes the standardized transform of m into dst (which must
// have m's dimensions) and returns dst. Prior contents of dst are
// discarded; dst must not alias m unless they are the same matrix.
//
// When every Std is 1 (the models that only centre their features),
// it subtracts the means and skips the divide: x/1 is x exactly, so the
// bits are the divide loop's.
func (s *Standardizer) ApplyInto(dst, m *Dense) *Dense {
	if m.cols != len(s.Mean) {
		panic("mat: Standardizer dimension mismatch")
	}
	if dst.rows != m.rows || dst.cols != m.cols {
		panic(fmt.Sprintf("mat: ApplyInto destination %dx%d, want %dx%d",
			dst.rows, dst.cols, m.rows, m.cols))
	}
	mean, std := s.Mean, s.Std[:len(s.Mean)]
	unit := true
	for _, sd := range std {
		unit = unit && sd == 1
	}
	for i := 0; i < m.rows; i++ {
		src := m.data[i*m.cols : (i+1)*m.cols]
		row := dst.data[i*dst.cols : (i+1)*dst.cols]
		if unit {
			for j := range row {
				row[j] = src[j] - mean[j]
			}
			continue
		}
		for j := range row {
			row[j] = (src[j] - mean[j]) / std[j]
		}
	}
	return dst
}

// Covariance returns the (cols x cols) sample covariance matrix of m
// (ddof = 1). PCA consumes this. m is not modified.
func Covariance(m *Dense) *Dense {
	return CovarianceInto(NewDense(m.cols, m.cols), m.Clone(), nil)
}

// CovarianceInto computes the sample covariance matrix of m (ddof = 1)
// into dst (which must be cols x cols) and returns dst. mu is an
// optional length-cols scratch slice for the column means (nil
// allocates); prior contents of dst and mu are discarded.
//
// CovarianceInto overwrites m: it centres every column in place (m
// minus its column means), once, instead of subtracting the mean again
// for every product.
func CovarianceInto(dst *Dense, m *Dense, mu []float64) *Dense {
	if m.rows < 2 {
		panic("mat: Covariance needs at least 2 rows")
	}
	if dst.rows != m.cols || dst.cols != m.cols {
		panic(fmt.Sprintf("mat: CovarianceInto destination %dx%d, want %dx%d",
			dst.rows, dst.cols, m.cols, m.cols))
	}
	if mu == nil {
		mu = make([]float64, m.cols)
	}
	ColMeansInto(mu, m)
	d := m.cols
	for i := 0; i < m.rows; i++ {
		row := m.data[i*d : (i+1)*d]
		for j := range row {
			row[j] -= mu[j]
		}
	}
	c := dst
	clear(c.data)
	// Accumulate the upper triangle in panels of 4*tileBlocks rows: for
	// each row a of C, one rank4Tile call adds the panel's four-row
	// blocks in turn, so each C element is loaded and stored once per
	// panel on the AVX path instead of once per row, and each block's
	// four products combine pairwise so the adds form a short tree
	// instead of a serial dependency chain. Row a's strip starts at
	// a&^3 rather than a, which keeps every strip a multiple of four
	// wide when d is; the few elements left of the diagonal it also
	// updates are overwritten by the mirror below.
	i := m.rows &^ 3
	for p := 0; p < i; p += 4 * tileBlocks {
		blocks := min(tileBlocks, (i-p)/4)
		for a := 0; a < d; a++ {
			s := a &^ 3
			rank4Tile(c.data[a*d+s:(a+1)*d], m.data[p*d+a:], d, m.data[p*d+s:], d, blocks)
		}
	}
	for ; i < m.rows; i++ {
		row := m.data[i*d : (i+1)*d]
		for a := 0; a < d; a++ {
			da := row[a]
			if da == 0 {
				continue
			}
			crow := c.data[a*d : (a+1)*d]
			for b := a; b < d; b++ {
				crow[b] += da * row[b]
			}
		}
	}
	n1 := float64(m.rows - 1)
	for a := 0; a < m.cols; a++ {
		for b := a; b < m.cols; b++ {
			v := c.data[a*c.cols+b] / n1
			c.data[a*c.cols+b] = v
			c.data[b*c.cols+a] = v
		}
	}
	return c
}
