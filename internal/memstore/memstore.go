// Package memstore bridges the data-mining benchmarks and the protected
// memories: it quantizes floating-point training data to 32-bit
// fixed-point words, streams them through a mem.Word32 (where bit-cell
// faults corrupt them), and decodes the result. This realizes §5.2's
// "functional model of a 16KB memory is used to inject bit-flips" for
// datasets of any size: the data is paged through the memory, so every
// page experiences the same persistent fault map — the behaviour of
// storing a working set in one physical macro.
package memstore

import (
	"fmt"
	"math"

	"faultmem/internal/mat"
	"faultmem/internal/mem"
)

// Codec converts between float64 and Q(31-Frac).Frac signed fixed-point
// words. The paper's benchmarks store 2's-complement integers (§3); the
// default Q16.16 format covers every feature range in the Table 1
// datasets with 2^-16 resolution.
type Codec struct {
	// Frac is the number of fractional bits (0..31).
	Frac int
}

// DefaultCodec returns the Q16.16 codec.
func DefaultCodec() Codec { return Codec{Frac: 16} }

// scale returns 2^Frac. Every Frac Encode accepts (0..31) is built as
// an integer power of two, without a math.Ldexp call on each scalar
// Encode and Decode; any other Frac Decode sees keeps Ldexp's value.
func (c Codec) scale() float64 {
	if uint(c.Frac) < 32 {
		return float64(uint32(1) << uint(c.Frac))
	}
	return math.Ldexp(1, c.Frac)
}

// Max returns the largest representable value.
func (c Codec) Max() float64 { return float64(math.MaxInt32) / c.scale() }

// Min returns the smallest (most negative) representable value.
func (c Codec) Min() float64 { return float64(math.MinInt32) / c.scale() }

// Encode quantizes f to a fixed-point word, saturating at the format
// limits (NaN encodes as 0).
func (c Codec) Encode(f float64) uint32 {
	c.checkFrac()
	return encodeScaled(f, c.scale())
}

// Decode converts a fixed-point word back to float64.
func (c Codec) Decode(w uint32) float64 {
	if inv, ok := c.invScale(); ok {
		return float64(int32(w)) * inv
	}
	return float64(int32(w)) / c.scale()
}

// invScale returns 2^-Frac, built from its exponent bits, and true for
// every Frac Encode accepts (0..31). There an int32 times 2^-Frac has
// the same bits as the int32 divided by 2^Frac, because both results
// are exact: the quotient needs at most 31 significant bits and lies
// far above the subnormal range. So Decode multiplies instead of
// dividing; other Fracs keep the division.
func (c Codec) invScale() (float64, bool) {
	if uint(c.Frac) < 32 {
		return math.Float64frombits(uint64(1023-c.Frac) << 52), true
	}
	return 0, false
}

// EncodeInto sets dst[i] = Encode(src[i]) for every element, checking
// Frac and building the scale once. len(dst) must equal len(src).
func (c Codec) EncodeInto(dst []uint32, src []float64) {
	c.checkFrac()
	if len(dst) != len(src) {
		panic(fmt.Sprintf("memstore: encode %d values into %d words", len(src), len(dst)))
	}
	scale := c.scale()
	for i, f := range src {
		dst[i] = encodeScaled(f, scale)
	}
}

// DecodeInto sets dst[i] = Decode(src[i]) for every element. len(dst)
// must equal len(src).
func (c Codec) DecodeInto(dst []float64, src []uint32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("memstore: decode %d words into %d values", len(src), len(dst)))
	}
	if inv, ok := c.invScale(); ok {
		for i, w := range src {
			dst[i] = float64(int32(w)) * inv
		}
		return
	}
	scale := c.scale()
	for i, w := range src {
		dst[i] = float64(int32(w)) / scale
	}
}

// checkFrac panics unless Frac is one Encode accepts.
func (c Codec) checkFrac() {
	if c.Frac < 0 || c.Frac > 31 {
		panic(fmt.Sprintf("memstore: fractional bits %d outside [0,31]", c.Frac))
	}
}

// belowHalf is the largest float64 below 1/2.
const belowHalf = 0.49999999999999994

// encodeScaled is Encode with the 2^Frac scale precomputed: f*scale
// rounded half away from zero (math.Round) and saturated to int32.
//
// After the NaN and saturation checks |v| < 2^31, and there adding
// belowHalf with v's sign and truncating is exactly math.Round: when
// v's fraction is 1/2 or more, the exact sum lies within half an ulp of
// the next integer away from zero and rounds onto it (at v = ±1/2 it is
// a tie, which goes to the even ±1); when the fraction is below 1/2,
// the sum stays more than half an ulp short of it. That costs one add
// and one truncating conversion; math.Round is the tests' reference.
func encodeScaled(f, scale float64) uint32 {
	if math.IsNaN(f) {
		return 0
	}
	v := f * scale
	if v >= math.MaxInt32 {
		return math.MaxInt32
	}
	if v <= math.MinInt32 {
		return 1 << 31 // uint32(int32(math.MinInt32))
	}
	return uint32(int32(v + math.Copysign(belowHalf, v)))
}

// RoundTripValues writes vals through the memory page by page and
// returns the decoded read-back. len(vals) may exceed the memory size;
// every page reuses the same words (and therefore the same fault map).
// It is the cached round trip on a throwaway workspace.
func (c Codec) RoundTripValues(m mem.Word32, vals []float64) []float64 {
	if len(vals) == 0 {
		return []float64{}
	}
	var ws Workspace
	c.EncodeValuesInto(&ws, vals)
	return c.RoundTripCachedValues(&ws, m, nil)
}

// RoundTripDataset round-trips features and targets: the paper stores
// the entire training dataset in the unreliable memory (§5.2), so the
// label vector is corrupted alongside the feature matrix. It is the
// cached round trip on a throwaway workspace.
func (c Codec) RoundTripDataset(m mem.Word32, x *mat.Dense, y []float64) (*mat.Dense, []float64) {
	var ws Workspace
	c.EncodeDatasetInto(&ws, x, y)
	return c.RoundTripCachedInto(&ws, m, nil)
}

// Workspace holds the scratch buffers of the cached round trips so a
// Monte-Carlo worker can reuse them across trials instead of allocating
// a dataset-sized matrix and two flat copies per (trial, arm). The zero
// value is ready to use; it grows to the largest dataset it has seen and
// then performs no further allocations.
type Workspace struct {
	flat []float64
	x    *mat.Dense
	y    []float64

	// Cached quantized dataset (EncodeDatasetInto / EncodeValuesInto):
	// the clean words and the shape they encode.
	words      []uint32
	cachedRows int
	cachedCols int

	// Codeword-image cache: for each encode transform (mem.Word32
	// ImageKey) the physical image of the cached words, computed lazily
	// once and shared by every memory with that key. The clean encode is
	// fault-independent, so images stay valid across Reset/Reprogram of
	// the memories and are invalidated only when the cached data changes.
	images map[string][]uint64
	// readBuf stages one page of batch reads.
	readBuf []uint32
}

// EncodeDatasetInto quantizes (x, y) once into the workspace's word
// cache. A Monte-Carlo loop that round-trips the same clean dataset
// through many fault maps (the Fig. 7 engine: every arm of every
// trial) pays the float-to-fixed-point conversion and the row
// flattening once per shard instead of once per round trip; the
// per-trial work left in RoundTripCachedInto is exactly the
// fault-dependent part (memory writes, reads, decode).
func (c Codec) EncodeDatasetInto(ws *Workspace, x *mat.Dense, y []float64) {
	rows, cols := x.Dims()
	if rows != len(y) {
		panic("memstore: X/Y length mismatch")
	}
	n := rows*cols + len(y)
	if cap(ws.words) < n {
		ws.words = make([]uint32, n)
	}
	words := ws.words[:n]
	for i := 0; i < rows; i++ {
		c.EncodeInto(words[i*cols:(i+1)*cols], x.RawRow(i))
	}
	c.EncodeInto(words[rows*cols:], y)
	ws.words = words
	ws.cachedRows, ws.cachedCols = rows, cols
	clear(ws.images) // cached images encode the previous dataset
}

// EncodeValuesInto quantizes a flat value slice once into the
// workspace's word cache — the shapeless sibling of EncodeDatasetInto
// for workloads whose memory-resident data is not a feature matrix
// (sorting keys, solver coefficients). Read the corrupted values back
// per trial with RoundTripCachedValues.
func (c Codec) EncodeValuesInto(ws *Workspace, vals []float64) {
	if len(vals) == 0 {
		panic("memstore: EncodeValuesInto of empty slice")
	}
	if cap(ws.words) < len(vals) {
		ws.words = make([]uint32, len(vals))
	}
	words := ws.words[:len(vals)]
	c.EncodeInto(words, vals)
	ws.words = words
	ws.cachedRows, ws.cachedCols = 0, 0 // no dataset shape cached
	clear(ws.images)                    // cached images encode the previous data
}

// imageFor returns the physical image of the cached words under the
// memory's encode transform, computing and caching it on first use.
func (ws *Workspace) imageFor(m mem.Word32) []uint64 {
	key := m.ImageKey()
	if img, ok := ws.images[key]; ok {
		return img
	}
	if ws.images == nil {
		ws.images = make(map[string][]uint64)
	}
	img := make([]uint64, len(ws.words))
	m.EncodeImage(img, ws.words)
	ws.images[key] = img
	return img
}

// RoundTripCachedInto streams the cached dataset (EncodeDatasetInto)
// through the memory page by page and returns the decoded dataset. A
// nil rec is the plain trip; otherwise the trip also flags DUEs in
// rec.DUE (flat layout: row-major features, then labels) and applies
// rec's mechanisms per page (see Recovery). The returned matrix and
// slice alias ws and stay valid only until the next round trip on it;
// consumers that retain the data past one model fit/score cycle must
// copy it. It panics if no dataset has been cached.
func (c Codec) RoundTripCachedInto(ws *Workspace, m mem.Word32, rec *Recovery) (*mat.Dense, []float64) {
	rows, cols := ws.cachedRows, ws.cachedCols
	if rows == 0 {
		panic("memstore: RoundTripCachedInto before EncodeDatasetInto")
	}
	flat := c.roundTrip(ws, m, rec)

	if ws.x == nil {
		ws.x = mat.NewDense(rows, cols)
	} else if r, cc := ws.x.Dims(); r != rows || cc != cols {
		ws.x = mat.NewDense(rows, cols)
	}
	for i := 0; i < rows; i++ {
		ws.x.SetRow(i, flat[i*cols:(i+1)*cols])
	}
	if cap(ws.y) < rows {
		ws.y = make([]float64, rows)
	}
	yOut := ws.y[:rows]
	copy(yOut, flat[rows*cols:])
	ws.y = yOut
	return ws.x, yOut
}

// RoundTripCachedValues streams the cached words (EncodeValuesInto or
// EncodeDatasetInto) through the memory page by page and returns the
// decoded flat values — the shapeless sibling of RoundTripCachedInto,
// with the same recovery argument and aliasing rules (the returned
// slice is workspace scratch, valid until the next round trip). It
// panics if no values have been cached.
func (c Codec) RoundTripCachedValues(ws *Workspace, m mem.Word32, rec *Recovery) []float64 {
	if len(ws.words) == 0 {
		panic("memstore: RoundTripCachedValues before EncodeValuesInto")
	}
	return c.roundTrip(ws, m, rec)
}

// roundTrip is the one paging core of every round trip: for each page
// of ws.words it writes the cached image, batch-reads the page back
// (flagging DUEs into rec.DUE when rec is not nil), lets rec recover
// the flagged words while the page is still resident, and decodes the
// page into ws.flat.
func (c Codec) roundTrip(ws *Workspace, m mem.Word32, rec *Recovery) []float64 {
	pageWords := m.Words()
	if pageWords == 0 {
		panic("memstore: empty memory")
	}
	n := len(ws.words)
	if cap(ws.flat) < n {
		ws.flat = make([]float64, 0, n)
	}
	flat := ws.flat[:n]
	ws.flat = flat
	img := ws.imageFor(m)
	var due *mem.DUESet
	if rec != nil {
		rec.DUE.Reset(n)
		due = &rec.DUE
	}
	if pageN := min(pageWords, n); cap(ws.readBuf) < pageN {
		ws.readBuf = make([]uint32, pageN)
	}
	for start := 0; start < n; start += pageWords {
		end := min(start+pageWords, n)
		page := ws.readBuf[:end-start]
		m.WriteImage(0, img[start:end])
		m.ReadBatch(0, page, due, start)
		if rec != nil {
			rec.recoverPage(m, page, ws.words[start:end], start)
		}
		c.DecodeInto(flat[start:end], page)
	}
	return flat
}
