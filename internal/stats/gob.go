package stats

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// This file makes both Accumulator implementations gob-transportable, so
// a Monte-Carlo shard's accumulators — including []Accumulator values,
// via the Register calls below — can cross a host boundary and merge on
// the coordinator bit-identically to a single-host run. Only the state
// that defines the distribution is encoded; lazily built query caches
// (sorted order, prefix sums) are rebuilt on first query after decode, so
// a decoded accumulator answers every query exactly like the original.

func init() {
	gob.Register(&WeightedCDF{})
	gob.Register(&LogHistogram{})
}

// wcdfWire is the wire form of WeightedCDF: observations in insertion
// order (the order Merge preserves and every query result depends on).
type wcdfWire struct {
	Xs, Ws []float64
	Total  float64
}

// GobEncode encodes the CDF's observations in insertion order.
func (c *WeightedCDF) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(wcdfWire{Xs: c.xs, Ws: c.ws, Total: c.total})
	return buf.Bytes(), err
}

// GobDecode replaces the CDF with the encoded observations. It rejects
// every state Add could never have produced: a NaN observation, a weight
// that is not finite and positive (Add drops zero weights), and a total
// weight that is negative, not finite, or zero exactly when observations
// are present — so a decoded CDF is always safe to query and merge.
func (c *WeightedCDF) GobDecode(b []byte) error {
	var w wcdfWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if len(w.Xs) != len(w.Ws) {
		return fmt.Errorf("stats: corrupt WeightedCDF encoding: %d observations, %d weights", len(w.Xs), len(w.Ws))
	}
	for i, x := range w.Xs {
		if math.IsNaN(x) {
			return fmt.Errorf("stats: corrupt WeightedCDF encoding: observation %d is NaN", i)
		}
		if wi := w.Ws[i]; !(wi > 0) || math.IsInf(wi, 1) {
			return fmt.Errorf("stats: corrupt WeightedCDF encoding: observation %d weight %g", i, wi)
		}
	}
	if !(w.Total >= 0) || math.IsInf(w.Total, 1) || (w.Total == 0) != (len(w.Xs) == 0) {
		return fmt.Errorf("stats: corrupt WeightedCDF encoding: total weight %g over %d observations", w.Total, len(w.Xs))
	}
	*c = WeightedCDF{xs: w.Xs, ws: w.Ws, total: w.Total}
	return nil
}

// histWire is the wire form of LogHistogram: the bin geometry, the bin
// weights, and the running moments/extrema.
type histWire struct {
	LogMin, LogMax float64
	NBins          int
	W              []float64
	Total          float64
	Count          int64
	SumX, SumXX    float64
	Min, Max       float64
}

// GobEncode encodes the histogram's geometry, bins, and moments.
func (h *LogHistogram) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(histWire{
		LogMin: h.logMin, LogMax: h.logMax, NBins: h.nbins, W: h.w,
		Total: h.total, Count: h.count, SumX: h.sumX, SumXX: h.sumXX,
		Min: h.min, Max: h.max,
	})
	return buf.Bytes(), err
}

// GobDecode replaces the histogram with the encoded state. It rejects
// every geometry NewLogHistogram rejects, and bin weights Add could never
// have produced (negative, NaN or infinite), so a decoded histogram is
// always safe to query and merge.
func (h *LogHistogram) GobDecode(b []byte) error {
	var w histWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if w.NBins < 1 || w.NBins > MaxLogHistBins || !validLogDomain(w.LogMin, w.LogMax) || len(w.W) != w.NBins+2 {
		return fmt.Errorf("stats: corrupt LogHistogram encoding: %d bins over [%g, %g) with %d weights",
			w.NBins, w.LogMin, w.LogMax, len(w.W))
	}
	for i, wi := range w.W {
		if !(wi >= 0) || math.IsInf(wi, 1) {
			return fmt.Errorf("stats: corrupt LogHistogram encoding: bin %d weight %g", i, wi)
		}
	}
	*h = LogHistogram{
		logMin: w.LogMin, logMax: w.LogMax, nbins: w.NBins,
		scale: float64(w.NBins) / (w.LogMax - w.LogMin),
		w:     w.W, dirty: true,
		total: w.Total, count: w.Count, sumX: w.SumX, sumXX: w.SumXX,
		min: w.Min, max: w.Max,
	}
	return nil
}
