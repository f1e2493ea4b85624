package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameFloat reports whether a and b have the same bits, or are both
// NaN: a NaN's sign and payload depend on which operand an instruction
// takes first, and no caller reads them.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// rowMulVec is the one-row reference of MulVecInto on the row-major
// matrix a: dst[i] = init[i] + Σ_j a[i][j]·v[j], one serial sum per row.
func rowMulVec(dst, a, v, init []float64) {
	cols := len(v)
	for i := range dst {
		s := 0.0
		if init != nil {
			s = init[i]
		}
		for j, f := range v {
			s += a[i*cols+j] * f
		}
		dst[i] = s
	}
}

// rowScanPair is the row-major reference of ScanPair. It adds to *late
// (when not nil) the panels abandoned on their full sums.
func rowScanPair(a []float64, rows int, qa, qb []float64, from int, boundA, boundB float64, sums *[8]float64, late *int) int {
	cols := len(qa)
	for p := from; p < rows/4; p++ {
		var s [8]float64
		sum := func(to int) {
			s = [8]float64{}
			for l := 0; l < 4; l++ {
				row := a[(4*p+l)*cols:]
				for j := 0; j < to; j++ {
					da, db := qa[j]-row[j], qb[j]-row[j]
					s[l] += da * da
					s[4+l] += db * db
				}
			}
		}
		reach := func() bool {
			for l := 0; l < 4; l++ {
				if !(s[l] >= boundA && s[4+l] >= boundB) {
					return false
				}
			}
			return true
		}
		if sum(cols / 2); reach() {
			continue
		}
		if sum(cols); reach() {
			if late != nil {
				*late++
			}
			continue
		}
		*sums = s
		return p
	}
	return rows / 4
}

func TestPanelsPackLayout(t *testing.T) {
	for _, dims := range [][2]int{{0, 3}, {1, 1}, {3, 2}, {4, 5}, {9, 3}} {
		rows, cols := dims[0], dims[1]
		a := make([]float64, rows*cols)
		for i := range a {
			a[i] = float64(i + 1)
		}
		var p Panels
		p.data = []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
		p.Pack(a, rows, cols)
		if r, c := p.Dims(); r != rows || c != cols {
			t.Fatalf("Dims = %d, %d, want %d, %d", r, c, rows, cols)
		}
		if want := (rows + 3) / 4 * 4 * cols; len(p.data) != want {
			t.Fatalf("%dx%d: %d packed elements, want %d", rows, cols, len(p.data), want)
		}
		for i := 0; i < (rows+3)/4*4; i++ {
			for j := 0; j < cols; j++ {
				want := 0.0
				if i < rows {
					want = a[i*cols+j]
				}
				if got := p.data[4*((i/4)*cols+j)+i%4]; got != want {
					t.Errorf("%dx%d: element (%d, %d) = %g, want %g", rows, cols, i, j, got, want)
				}
			}
		}
	}
}

// TestPanelMulVecMatchesRowLoop pins MulVecInto on both paths to the
// one-row loop, at row counts on and off a multiple of four and sixteen
// (so the kernel's four-panel and one-panel passes and the Go tail all
// run), with and without init, and with init aliasing dst. The operands
// span the whole exponent range (wideValue).
func TestPanelMulVecMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	kernelPaths(t, func(t *testing.T) {
		for _, rows := range []int{0, 1, 3, 4, 5, 8, 15, 16, 17, 23, 64, 67} {
			for _, cols := range []int{0, 1, 2, 7, 23, 64} {
				a := make([]float64, rows*cols)
				for i := range a {
					a[i] = wideValue(rng)
				}
				v, init := make([]float64, cols), make([]float64, rows)
				for i := range v {
					v[i] = wideValue(rng)
				}
				for i := range init {
					init[i] = wideValue(rng)
				}
				var p Panels
				p.Pack(a, rows, cols)
				for _, in := range [][]float64{nil, init} {
					want, got := make([]float64, rows), make([]float64, rows)
					rowMulVec(want, a, v, in)
					p.MulVecInto(got, v, in)
					for i := range want {
						if !sameFloat(got[i], want[i]) {
							t.Fatalf("%dx%d init %v: row %d = %x, row loop %x", rows, cols, in != nil, i,
								math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
				aliased := append([]float64(nil), init...)
				p.MulVecInto(aliased, v, aliased)
				want := make([]float64, rows)
				rowMulVec(want, a, v, init)
				for i := range want {
					if !sameFloat(aliased[i], want[i]) {
						t.Fatalf("%dx%d, dst = init: row %d differs", rows, cols, i)
					}
				}
			}
		}
	})
}

// TestPanelScanPairMatchesRowScan pins ScanPair on both paths to the
// row-major reference: a full scan that, like the KNN caller, tightens
// the bounds after every panel it returns, so some panels are abandoned
// and some are not; a scan under fixed bounds at the tenth percentile
// of each query's distances, where most panels pass the half-way check
// and are abandoned on their full sums; then a scan under NaN bounds,
// which abandons nothing, and under bounds of zero, which abandons
// every panel whose partial sums are all zero, including the
// one-column case that checks before any column.
func TestPanelScanPairMatchesRowScan(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	kernelPaths(t, func(t *testing.T) {
		lateAbandons := 0
		for _, rows := range []int{0, 3, 4, 7, 40, 203} {
			for _, cols := range []int{1, 2, 3, 15, 32} {
				a := make([]float64, rows*cols)
				for i := range a {
					a[i] = math.Round(rng.NormFloat64()*4) / 4
				}
				if rows >= 8 {
					copy(a[4*cols:8*cols], a[:4*cols]) // a duplicate panel: equal sums
				}
				qa, qb := make([]float64, cols), make([]float64, cols)
				for j := range qa {
					qa[j], qb[j] = math.Round(rng.NormFloat64()*4)/4, math.Round(rng.NormFloat64()*4)/4
				}
				var p Panels
				p.Pack(a, rows, cols)
				for _, mode := range []string{"tighten", "late", "nan", "zero"} {
					boundA, boundB := math.Inf(1), math.Inf(1)
					switch mode {
					case "late":
						boundA, boundB = tenthPercentiles(a, rows, qa, qb)
					case "nan":
						boundA, boundB = math.NaN(), math.NaN()
					case "zero":
						boundA, boundB = 0, 0
					}
					var got, want [8]float64
					for from := 0; ; from++ {
						g := p.ScanPair(from, qa, qb, boundA, boundB, &got)
						w := rowScanPair(a, rows, qa, qb, from, boundA, boundB, &want, &lateAbandons)
						if g != w {
							t.Fatalf("%dx%d %s from %d: panel %d, reference %d", rows, cols, mode, from, g, w)
						}
						if g == rows/4 {
							break
						}
						for l := range got {
							if !sameFloat(got[l], want[l]) {
								t.Fatalf("%dx%d %s panel %d: sum %d = %g, reference %g", rows, cols, mode, g, l, got[l], want[l])
							}
						}
						if mode == "tighten" {
							boundA = min(boundA, got[0], got[1], got[2], got[3])
							boundB = min(boundB, got[4], got[5], got[6], got[7])
						}
						from = g
					}
				}
			}
		}
		if lateAbandons == 0 {
			t.Error("no panel was abandoned on its full sums")
		}
	})
}

// tenthPercentiles returns the tenth percentile of the squared
// distances from qa, and of those from qb, to the rows of the full
// panels of the row-major a.
func tenthPercentiles(a []float64, rows int, qa, qb []float64) (float64, float64) {
	var da, db []float64
	for i := 0; i < rows&^3; i++ {
		row := a[i*len(qa):]
		var sa, sb float64
		for j := range qa {
			sa += (qa[j] - row[j]) * (qa[j] - row[j])
			sb += (qb[j] - row[j]) * (qb[j] - row[j])
		}
		da, db = append(da, sa), append(db, sb)
	}
	if len(da) == 0 {
		return 0, 0
	}
	slices.Sort(da)
	slices.Sort(db)
	return da[len(da)/10], db[len(db)/10]
}

// fuzzValues turns raw fuzz bytes into n float64s, eight bytes each
// (cycling through data, each pass XORed with its index so short inputs
// still vary); every float64 bit pattern can occur, ±0, subnormals,
// huge values, infinities and NaNs included.
func fuzzValues(data []byte, n int) []float64 {
	out := make([]float64, n)
	if len(data) == 0 {
		return out
	}
	var w [8]byte
	for i := range out {
		for k := range w {
			w[k] = data[(8*i+k)%len(data)]
		}
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]) ^ uint64(8*i/len(data)))
	}
	return out
}

// FuzzPanelKernels checks both AVX panel kernels against their Go
// loops on fuzzed shapes and operand bits: MulVecInto (with and without
// init) and a full ScanPair walk, which must return the same panels
// with the same sums, whether a panel is abandoned half-way or on its
// full sums. NaN results need only agree on being NaN.
func FuzzPanelKernels(f *testing.F) {
	sub := math.Float64bits(math.SmallestNonzeroFloat64 * 3)
	seed := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	f.Add(uint8(5), uint8(3), seed(0, 1<<63, sub, math.Float64bits(1e300), math.Float64bits(-2.5)), 1.0, 2.0)
	f.Add(uint8(16), uint8(9), seed(math.Float64bits(1), math.Float64bits(-1e-310), math.Float64bits(3e200)), math.Inf(1), 0.0)
	f.Add(uint8(23), uint8(1), seed(math.Float64bits(0.25), 1<<63), math.NaN(), 1e-300)
	f.Add(uint8(8), uint8(32), []byte("panels"), 1e10, 1e10)
	// Rows and queries all near 10, one column: the half-way check sees
	// zero sums, and every panel is abandoned on its full sums.
	f.Add(uint8(12), uint8(1), seed(math.Float64bits(10)), 1e-40, 1e-40)
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte, boundA, boundB float64) {
		if !UseAVX {
			t.Skip("no AVX on this CPU or GOARCH")
		}
		r, c := int(rows)%70, int(cols)%40
		vals := fuzzValues(data, r*c+2*r+2*c)
		a, v, init := vals[:r*c], vals[r*c:r*c+c], vals[r*c+c:r*c+c+r]
		qb := vals[r*c+c+r : r*c+2*c+r]
		var p Panels
		p.Pack(a, r, c)
		saved := UseAVX
		defer func() { UseAVX = saved }()
		for _, in := range [][]float64{nil, init} {
			got, want := make([]float64, r), make([]float64, r)
			UseAVX = true
			p.MulVecInto(got, v, in)
			UseAVX = false
			p.MulVecInto(want, v, in)
			for i := range got {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("%dx%d MulVecInto row %d: AVX %x, Go %x", r, c, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		if c == 0 {
			return
		}
		qa := v
		var gs, ws [8]float64
		for from := 0; from < r/4; from++ {
			UseAVX = true
			g := p.ScanPair(from, qa, qb, boundA, boundB, &gs)
			UseAVX = false
			w := p.ScanPair(from, qa, qb, boundA, boundB, &ws)
			if g != w {
				t.Fatalf("%dx%d ScanPair from %d: AVX panel %d, Go %d", r, c, from, g, w)
			}
			if g == r/4 {
				break
			}
			for l := range gs {
				if !sameFloat(gs[l], ws[l]) {
					t.Fatalf("%dx%d ScanPair panel %d sum %d: AVX %x, Go %x", r, c, g, l, math.Float64bits(gs[l]), math.Float64bits(ws[l]))
				}
			}
			from = g
		}
	})
}

// BenchmarkPanelMulVec is one CG step's A·p at the default cgsolve
// geometry, 64 x 64.
func BenchmarkPanelMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(113))
	a := randMat(rng, 64, 64)
	var p Panels
	p.PackDense(a)
	v, dst := a.Row(3), make([]float64, 64)
	kernelPaths(b, func(b *testing.B) {
		for b.Loop() {
			p.MulVecInto(dst, v, nil)
		}
	})
}
