package stats

import (
	"fmt"
	"math"
	"slices"

	"faultmem/internal/wire"
)

// Accumulators is one Monte-Carlo shard's accumulators, one per arm: the
// shard type of the Fig. 5 engine. Its binary form lets a shard cross a
// host boundary and merge on the coordinator bit-identically to a
// single-host run. Only the state that defines each distribution
// travels; the query caches (sorted order, prefix sums, the bin table)
// are rebuilt on the first query after decode, so a decoded accumulator
// answers every query exactly like the original.
//
// The form is the element count, then per element one kind byte (1 for
// *WeightedCDF, 2 for *LogHistogram) and that accumulator's form:
//
//   - WeightedCDF: the observation count n, n observations and n
//     weights in insertion order (the order Merge preserves and every
//     query depends on), the total weight.
//   - LogHistogram: logMin, logMax, the count nbins+2 and the nbins+2
//     bin weights (underflow, interior, overflow), the total weight, the
//     observation count, the weighted sums of x and x², min and max.
//
// Counts and floats are 8-byte little-endian (package wire).
type Accumulators []Accumulator

// Kind bytes of the Accumulators form.
const (
	kindWeightedCDF  byte = 1
	kindLogHistogram byte = 2
)

// minAccumulatorSize is the smallest element form: a kind byte, an empty
// CDF's count and total.
const minAccumulatorSize = 1 + 8 + 8

// AppendBinary appends the binary form of a. It fails on an element that
// is nil or of a kind without a form.
func (a Accumulators) AppendBinary(b []byte) ([]byte, error) {
	size := 8
	for i, acc := range a {
		switch acc := acc.(type) {
		case *WeightedCDF:
			if acc != nil {
				size += 1 + 8 + 16*len(acc.xs) + 8
				continue
			}
		case *LogHistogram:
			if acc != nil {
				size += 1 + 8*(3+len(acc.w)+6)
				continue
			}
		}
		return b, fmt.Errorf("stats: accumulator %d is a %T, which has no binary form", i, acc)
	}
	b = slices.Grow(b, size)
	b = wire.AppendUint64(b, uint64(len(a)))
	for _, acc := range a {
		switch acc := acc.(type) {
		case *WeightedCDF:
			b = acc.appendBinary(append(b, kindWeightedCDF))
		case *LogHistogram:
			b = acc.appendBinary(append(b, kindLogHistogram))
		}
	}
	return b, nil
}

// UnmarshalBinary replaces a with the accumulators encoded in b. It
// refuses every state Add and NewLogHistogram could never have built, so
// a decoded accumulator is always safe to query and merge.
func (a *Accumulators) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	out := make(Accumulators, r.Count(minAccumulatorSize))
	for i := range out {
		switch kind := r.Byte(); kind {
		case kindWeightedCDF:
			c := new(WeightedCDF)
			c.readBinary(r)
			out[i] = c
		case kindLogHistogram:
			h := new(LogHistogram)
			h.readBinary(r)
			out[i] = h
		default:
			r.Fail("accumulator %d has kind %d", i, kind)
		}
		if r.Err() != nil {
			break
		}
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("stats: corrupt Accumulators encoding: %w", err)
	}
	*a = out
	return nil
}

func (c *WeightedCDF) appendBinary(b []byte) []byte {
	b = wire.AppendUint64(b, uint64(len(c.xs)))
	b = wire.AppendFloat64s(b, c.xs)
	b = wire.AppendFloat64s(b, c.ws)
	return wire.AppendFloat64(b, c.total)
}

// readBinary reads a CDF form into c. It refuses a NaN observation, a
// weight that is not finite and positive (Add drops zero weights), and a
// total weight that is negative, not finite, or zero exactly when
// observations are present.
func (c *WeightedCDF) readBinary(r *wire.Reader) {
	n := r.Count(16)
	xs := r.Float64s(n)
	ws := r.Float64s(n)
	total := r.Float64()
	if r.Err() != nil {
		return
	}
	for i, x := range xs {
		if math.IsNaN(x) {
			r.Fail("WeightedCDF observation %d is NaN", i)
			return
		}
		if wi := ws[i]; !(wi > 0) || math.IsInf(wi, 1) {
			r.Fail("WeightedCDF observation %d weight %g", i, wi)
			return
		}
	}
	if !(total >= 0) || math.IsInf(total, 1) || (total == 0) != (n == 0) {
		r.Fail("WeightedCDF total weight %g over %d observations", total, n)
		return
	}
	*c = WeightedCDF{xs: xs, ws: ws, total: total}
}

func (h *LogHistogram) appendBinary(b []byte) []byte {
	b = wire.AppendFloat64(b, h.logMin)
	b = wire.AppendFloat64(b, h.logMax)
	b = wire.AppendUint64(b, uint64(len(h.w)))
	b = wire.AppendFloat64s(b, h.w)
	b = wire.AppendFloat64(b, h.total)
	b = wire.AppendUint64(b, uint64(h.count))
	b = wire.AppendFloat64(b, h.sumX)
	b = wire.AppendFloat64(b, h.sumXX)
	b = wire.AppendFloat64(b, h.min)
	return wire.AppendFloat64(b, h.max)
}

// readBinary reads a histogram form into h. It refuses every geometry
// NewLogHistogram refuses and bin weights Add could never have produced
// (negative, NaN or infinite). The decoded histogram has no bin table
// until its first Add or P.
func (h *LogHistogram) readBinary(r *wire.Reader) {
	logMin, logMax := r.Float64(), r.Float64()
	w := r.Float64s(r.Count(8))
	total := r.Float64()
	count := int64(r.Uint64())
	sumX, sumXX := r.Float64(), r.Float64()
	lo, hi := r.Float64(), r.Float64()
	if r.Err() != nil {
		return
	}
	nbins := len(w) - 2
	if nbins < 1 || nbins > MaxLogHistBins || !validLogDomain(logMin, logMax) {
		r.Fail("LogHistogram of %d bins over [%g, %g)", nbins, logMin, logMax)
		return
	}
	for i, wi := range w {
		if !(wi >= 0) || math.IsInf(wi, 1) {
			r.Fail("LogHistogram bin %d weight %g", i, wi)
			return
		}
	}
	*h = LogHistogram{
		logMin: logMin, logMax: logMax, nbins: nbins,
		scale: float64(nbins) / (logMax - logMin),
		w:     w, dirty: true,
		total: total, count: count, sumX: sumX, sumXX: sumXX,
		min: lo, max: hi,
	}
}
