package stats

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// batchKinds are the accumulators the batch-add tests run on: the exact
// store, the Fig. 5 engine's histogram geometry, and a coarse one whose
// domain the default values overrun on both sides.
var batchKinds = []struct {
	name string
	make func() Accumulator
}{
	{"cdf", func() Accumulator { return &WeightedCDF{} }},
	{"hist-default", func() Accumulator { return NewLogHistogram(0, -8, 20) }},
	{"hist-7@[-3,5)", func() Accumulator { return NewLogHistogram(7, -3, 5) }},
}

// batchValues returns the observations the batch-add tests replay, in a
// seeded order: random values from 10^-12 to 10^24, zero, -1,
// subnormals, every default-geometry bin threshold and the float64 just
// below it, and values under and over the default domain. With inf set
// it adds +Inf and math.MaxFloat64, which saturate the moments; without,
// every sum stays finite, so a change in any one add shows.
func batchValues(inf bool) []float64 {
	rng := NewRand(11)
	xs := []float64{0, -1, math.SmallestNonzeroFloat64, 0x1p-1030, 1e-9, 1e-8, 1e20, 1e25}
	if inf {
		xs = append(xs, math.Inf(1), math.MaxFloat64)
	}
	for range 500 {
		xs = append(xs, math.Pow(10, rng.Float64()*36-12))
	}
	tab := newBinTable(NewLogHistogram(0, -8, 20))
	for _, thr := range tab.thr[1:] {
		xs = append(xs, thr, math.Nextafter(thr, 0))
	}
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// addOne is the per-observation update rule as Add spelled it out before
// the batch adds existed, binning by the bucketLog10 definition. It is
// their oracle: AddBatch and Add (now a batch of one) must each leave the
// state a run of addOne calls leaves, and panic where it panics.
func addOne(a Accumulator, x, w float64) {
	switch a := a.(type) {
	case *WeightedCDF:
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("stats: invalid CDF weight")
		}
		if math.IsNaN(x) {
			panic("stats: NaN CDF observation")
		}
		if w == 0 {
			return
		}
		a.xs = append(a.xs, x)
		a.ws = append(a.ws, w)
		a.total += w
		a.sorted = false
	case *LogHistogram:
		if !(w >= 0 && w <= math.MaxFloat64) {
			panic("stats: invalid histogram weight")
		}
		if x != x {
			panic("stats: NaN histogram observation")
		}
		if w == 0 {
			return
		}
		a.w[a.bucketLog10(x)] += w
		a.total += w
		a.count++
		a.sumX += w * x
		a.sumXX += w * x * x
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
		a.dirty = true
	default:
		panic(fmt.Sprintf("addOne: %T", a))
	}
}

// encoded is a's binary form: every bin, sum, count and extremum, or
// every observation and weight in insertion order.
func encoded(t *testing.T, a Accumulator) []byte {
	t.Helper()
	b, err := Accumulators{a}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkSameState fails unless every got encodes to want's bytes and
// answers P, Quantile and Points with want's bits. Queries sort a
// WeightedCDF in place, so all the bytes are compared first.
func checkSameState(t *testing.T, what string, want Accumulator, gots ...Accumulator) {
	t.Helper()
	for _, got := range gots {
		if !bytes.Equal(encoded(t, got), encoded(t, want)) {
			t.Fatalf("%s: state differs from the one-at-a-time adds'", what)
		}
	}
	for _, got := range gots {
		for _, x := range []float64{-1, 0, 1e-9, 3e-4, 1, 7, 1e6, 1e21, math.Inf(1)} {
			if p, q := got.P(x), want.P(x); math.Float64bits(p) != math.Float64bits(q) {
				t.Fatalf("%s: P(%g) = %g, want %g", what, x, p, q)
			}
		}
		if want.TotalWeight() > 0 {
			for _, q := range []float64{1e-6, 0.1, 0.5, 0.9, 1} {
				if a, b := got.Quantile(q), want.Quantile(q); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: Quantile(%g) = %g, want %g", what, q, a, b)
				}
			}
		}
		gx, gp := got.Points()
		wx, wp := want.Points()
		if !sameBits(gx, wx) || !sameBits(gp, wp) {
			t.Fatalf("%s: Points differ", what)
		}
	}
}

// panicOf runs f and returns what it panicked with (nil if it did not).
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func TestBatchAddsMatchAdds(t *testing.T) {
	negZero := math.Copysign(0, -1)
	finite, inf := batchValues(false), batchValues(true)
	for _, kind := range batchKinds {
		for _, c := range []struct {
			name string
			xs   []float64
			w    float64
		}{
			{"finite", finite, 1e-6},
			{"finite", finite, 0.5},
			{"finite", finite, 3},
			{"finite", finite, math.SmallestNonzeroFloat64},
			{"+Inf", inf, 1e-6},
			// Signed zeros tie as extrema: the first one added stays.
			{"+0 first", []float64{0, negZero, 2, negZero, 0}, 1},
			{"-0 first", []float64{negZero, 0, 2, 0, negZero}, 1},
		} {
			xs, w := c.xs, c.w
			what := fmt.Sprintf("%s %s w=%g", kind.name, c.name, w)

			// Add, and AddBatch in batches that cross its 64-value runs.
			want, add, got := kind.make(), kind.make(), kind.make()
			for _, x := range xs {
				addOne(want, x, w)
				add.Add(x, w)
			}
			for rest, size := xs, 1; len(rest) > 0; size = size*3 + 1 {
				n := min(size, len(rest))
				got.AddBatch(rest[:n], w)
				rest = rest[n:]
			}
			checkSameState(t, what+" Add, AddBatch", want, add, got)
		}
	}
}

func TestBatchAddWeightRules(t *testing.T) {
	xs := batchValues(true)
	for _, kind := range batchKinds {
		// Weight 0 drops every observation: the state stays the empty
		// one, count included.
		a := kind.make()
		a.AddBatch(xs, 0)
		checkSameState(t, kind.name+" w=0", kind.make(), a)
		if h, ok := a.(*LogHistogram); ok && h.Count() != 0 {
			t.Fatalf("%s: zero-weight batch counted %d observations", kind.name, h.Count())
		}

		// An invalid weight panics before adding anything, even to an
		// empty batch.
		for _, w := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			want, got := kind.make(), kind.make()
			for _, x := range xs[:20] {
				addOne(want, x, 1)
				addOne(got, x, 1)
			}
			for name, add := range map[string]func(){
				"Add":            func() { got.Add(xs[0], w) },
				"AddBatch":       func() { got.AddBatch(xs, w) },
				"AddBatch empty": func() { got.AddBatch(nil, w) },
			} {
				if panicOf(add) == nil {
					t.Fatalf("%s %s: weight %g did not panic", kind.name, name, w)
				}
			}
			checkSameState(t, fmt.Sprintf("%s w=%g", kind.name, w), want, got)
		}
	}
}

func TestBatchAddNaNLeavesPrefix(t *testing.T) {
	// A NaN at position k panics as Add does, after exactly the first k
	// observations went in, at any weight (a zero weight adds nothing
	// but still panics).
	base := batchValues(false)[:150]
	for _, kind := range batchKinds {
		for _, k := range []int{0, 1, 63, 64, 65, 149} {
			for _, w := range []float64{0, 0.25} {
				xs := append([]float64(nil), base...)
				xs[k] = math.NaN()
				want, got, add := kind.make(), kind.make(), kind.make()
				wantPanic := panicOf(func() {
					for _, x := range xs {
						addOne(want, x, w)
					}
				})
				gotPanic := panicOf(func() { got.AddBatch(xs, w) })
				addPanic := panicOf(func() {
					for _, x := range xs {
						add.Add(x, w)
					}
				})
				if wantPanic == nil || gotPanic != wantPanic || addPanic != wantPanic {
					t.Fatalf("%s k=%d w=%g: AddBatch panicked with %v and Add with %v, want %v",
						kind.name, k, w, gotPanic, addPanic, wantPanic)
				}
				checkSameState(t, fmt.Sprintf("%s NaN at %d w=%g", kind.name, k, w), want, got, add)
			}
		}
	}
}

func TestBatchAddsZeroAllocs(t *testing.T) {
	xs := batchValues(false)[:256]
	const runs = 100
	for _, kind := range batchKinds {
		a := kind.make()
		if c, ok := a.(*WeightedCDF); ok {
			// AllocsPerRun makes one warm-up run before the measured
			// ones.
			c.Reserve((runs + 1) * len(xs))
		}
		if avg := testing.AllocsPerRun(runs, func() { a.AddBatch(xs, 1e-6) }); avg != 0 {
			t.Errorf("%s: AddBatch allocates %.1f times per call", kind.name, avg)
		}
	}
}

// BenchmarkLogHistogramAddBatch times what one arm's accumulator takes
// per block of the Fig. 5 engine's dies of three or more faults: 256
// MSEs. Compare ns/op / 256 with BenchmarkLogHistogramAdd.
func BenchmarkLogHistogramAddBatch(b *testing.B) {
	h := NewLogHistogram(0, -8, 20)
	rng := NewRand(1)
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = math.Pow(10, rng.Float64()*12-2)
	}
	h.table() // build the shared bin table outside the timed loop
	b.ReportAllocs()
	for b.Loop() {
		h.AddBatch(xs, 1e-6)
	}
}
