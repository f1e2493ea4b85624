package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"faultmem/internal/mat"
)

// kernelPaths runs f once on each path a table add can take, as a
// subtest or sub-benchmark: "avx" when the CPU has AVX, then "go".
func kernelPaths[T interface{ Run(string, func(T)) bool }](tb T, f func(T)) {
	saved := mat.UseAVX
	defer func() { mat.UseAVX = saved }()
	if saved {
		tb.Run("avx", f)
	}
	mat.UseAVX = false
	tb.Run("go", f)
}

// tableOf returns a table of the given number of arms, each holding
// every x of xs, arm j's rotated left by j*len(xs)/arms, and binned in
// proto's geometry when proto is a histogram; and the values, vals[j][i]
// being arm j's at index i.
func tableOf(xs []float64, arms int, proto Accumulator) (*Table, [][]float64) {
	vals := make([][]float64, arms)
	for j := range vals {
		r := j * len(xs) / arms
		vals[j] = append(slices.Clone(xs[r:]), xs[:r]...)
	}
	h, _ := proto.(*LogHistogram)
	return NewTable(vals, h), vals
}

// armsOf returns n fresh accumulators from make.
func armsOf(make func() Accumulator, n int) Accumulators {
	a := Accumulators{}
	for range n {
		a = append(a, make())
	}
	return a
}

// tableRuns returns a random order of the indices 0..n-1, each once and
// about half of them a second time, split into runs of 0 to 300.
func tableRuns(rng *rand.Rand, n int) [][]uint16 {
	order := make([]uint16, 0, n+n/2)
	for i := range n {
		order = append(order, uint16(i))
	}
	for range n / 2 {
		order = append(order, uint16(rng.Intn(n)))
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var runs [][]uint16
	for len(order) > 0 {
		k := min(rng.Intn(301), len(order))
		runs = append(runs, order[:k])
		order = order[k:]
	}
	return runs
}

// addTableOne is AddTable's oracle: arm by arm, one addOne per index of
// idx, in order, of the arm's value vals[j][i].
func addTableOne(arms Accumulators, vals [][]float64, idx []uint16, w float64) {
	for j, a := range arms {
		for _, i := range idx {
			addOne(a, vals[j][i], w)
		}
	}
}

// checkScratchClear fails unless every count of s is zero, as every add
// must leave it.
func checkScratchClear(t *testing.T, s *TableScratch) {
	t.Helper()
	for i, c := range s.counts {
		if c != 0 {
			t.Fatalf("table add left count %d at index %d", c, i)
		}
	}
}

func TestTableAddArmRules(t *testing.T) {
	// An add to arms the table cannot feed panics before any arm
	// changes: a wrong arm count, a histogram of another geometry, a
	// histogram on a table built without one, a nil arm. Arms of mixed
	// kinds take the Go loop, and an arm that appears twice within a
	// pass takes both adds in arm order, as AddBatch would.
	xs := batchValues(true)[:40]
	def := func() Accumulator { return NewLogHistogram(0, -8, 20) }
	coarse := func() Accumulator { return NewLogHistogram(7, -3, 5) }
	cdf := func() Accumulator { return &WeightedCDF{} }
	tab, vals := tableOf(xs, 3, def())
	exact, _ := tableOf(xs, 3, cdf())
	idx := []uint16{1, 5, 5, 39, 0}
	kernelPaths(t, func(t *testing.T) {
		var s TableScratch
		for _, c := range []struct {
			name  string
			tab   *Table
			makes []func() Accumulator
		}{
			{"two arms", tab, []func() Accumulator{def, def}},
			{"four arms", tab, []func() Accumulator{def, def, def, def}},
			{"other geometry", tab, []func() Accumulator{def, coarse, def}},
			{"no geometry", exact, []func() Accumulator{cdf, def, cdf}},
			{"nil arm", tab, []func() Accumulator{def, nil, def}},
		} {
			got, want := make(Accumulators, len(c.makes)), make(Accumulators, len(c.makes))
			for j, make := range c.makes {
				if make != nil {
					got[j], want[j] = make(), make()
					addOne(got[j], xs[j], 1)
					addOne(want[j], xs[j], 1)
				}
			}
			if panicOf(func() { got.AddTable(c.tab, idx, 0.5, &s) }) == nil {
				t.Fatalf("%s: AddTable did not panic", c.name)
			}
			for j := range got {
				if got[j] != nil {
					checkSameState(t, fmt.Sprintf("%s arm %d", c.name, j), want[j], got[j])
				}
			}
			checkScratchClear(t, &s)
		}

		mixed, want := Accumulators{def(), cdf(), def()}, Accumulators{def(), cdf(), def()}
		mixed.AddTable(tab, idx, 0.5, &s)
		addTableOne(want, vals, idx, 0.5)
		for j := range mixed {
			checkSameState(t, fmt.Sprintf("mixed arm %d", j), want[j], mixed[j])
		}

		h, ref := def(), def()
		Accumulators{h, def(), h}.AddTable(tab, idx, 0.5, &s)
		for _, j := range []int{0, 2} {
			for _, i := range idx {
				addOne(ref, vals[j][i], 0.5)
			}
		}
		checkSameState(t, "arm added twice", ref, h)
		checkScratchClear(t, &s)
	})
}

// FuzzTableAdd compares the table add's AVX kernel, its Go loop and a
// per-arm AddBatch of the gathered values, by every arm's binary form.
// The inputs pick 1 to 17 arms (so up to three lane passes), a table of
// 1 to 2*64*64 indices (the Fig. 5 engine's largest) whose values are
// drawn from batchValues' pool plus -0 (±0, subnormals, +Inf, every bin
// threshold of the default geometry and its predecessor, values under
// and over the domain), runs of 0 to 300 indices that repeat some, a
// weight (0, subnormal and large ones among the seeds, any bits from the
// fuzzer) and either the default or a coarse geometry. Every arm starts
// from its own prefix of observations, so the lanes differ. An invalid
// weight must panic on every path and leave every arm as it was.
func FuzzTableAdd(f *testing.F) {
	for _, w := range []float64{1e-6, 0, math.SmallestNonzeroFloat64, 0x1p-1030, 0.5, 3, 1e300, math.MaxFloat64} {
		f.Add(uint8(7), uint16(32), uint16(256), int64(1), math.Float64bits(w), false)
	}
	f.Add(uint8(9), uint16(2048), uint16(256), int64(2), math.Float64bits(1e-6), true)
	f.Add(uint8(16), uint16(1), uint16(300), int64(3), math.Float64bits(2), false)
	f.Add(uint8(0), uint16(8191), uint16(17), int64(4), math.Float64bits(1), true)
	f.Add(uint8(3), uint16(5), uint16(0), int64(5), math.Float64bits(-1), false)
	f.Add(uint8(3), uint16(5), uint16(9), int64(6), math.Float64bits(math.NaN()), false)
	pool := append(batchValues(true), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, arms uint8, size, runLen uint16, seed int64, wbits uint64, coarse bool) {
		nArms := 1 + int(arms)%17
		n := 1 + int(size)%(2*64*64)
		w := math.Float64frombits(wbits)
		rng := NewRand(seed)
		proto := func() Accumulator { return NewLogHistogram(0, -8, 20) }
		if coarse {
			proto = func() Accumulator { return NewLogHistogram(7, -3, 5) }
		}
		vals := make([][]float64, nArms)
		for j := range vals {
			vals[j] = make([]float64, n)
			for i := range vals[j] {
				vals[j][i] = pool[rng.Intn(len(pool))]
			}
		}
		tab := NewTable(vals, proto().(*LogHistogram))
		hot := 1 + rng.Intn(n)
		idx := make([]uint16, int(runLen)%301)
		for k := range idx {
			idx[k] = uint16(rng.Intn(hot))
		}
		start := func() Accumulators {
			a := armsOf(proto, nArms)
			for j := range a {
				a[j].AddBatch(pool[j*3:j*3+j%4], 0.25)
			}
			return a
		}

		batch := start()
		wantPanic := panicOf(func() {
			for j, a := range batch {
				xs := make([]float64, len(idx))
				for k, i := range idx {
					xs[k] = vals[j][i]
				}
				a.AddBatch(xs, w)
			}
		}) != nil
		if wantPanic {
			batch = start()
		}
		saved := mat.UseAVX
		defer func() { mat.UseAVX = saved }()
		for _, avx := range []bool{true, false} {
			if avx && !saved {
				continue
			}
			mat.UseAVX = avx
			got := start()
			var s TableScratch
			if p := panicOf(func() { got.AddTable(tab, idx, w, &s) }) != nil; p != wantPanic {
				t.Fatalf("avx %t: AddTable panicked %t, AddBatch %t", avx, p, wantPanic)
			}
			for j := range got {
				if !bytes.Equal(encoded(t, got[j]), encoded(t, batch[j])) {
					t.Fatalf("avx %t, %d arms, %d indices, %d adds, w=%g: arm %d differs from AddBatch of its values",
						avx, nArms, n, len(idx), w, j)
				}
			}
			checkScratchClear(t, &s)
		}
	})
}

// BenchmarkTableAdd times what a Fig. 5 engine block of 256 one- or
// two-fault dies costs the seven arms' histograms together, on each
// kernel path, over a one-fault table of 32 indices and a two-fault
// table of 2*32*32. Compare ns/op / 256 / 7 with BenchmarkLogHistogramAdd.
func BenchmarkTableAdd(b *testing.B) {
	const arms = 7
	type tableCase struct {
		name string
		tab  *Table
		idx  []uint16
	}
	var cases []tableCase
	for _, c := range []struct {
		name string
		n    int
	}{{"one", 32}, {"two", 2 * 32 * 32}} {
		rng := NewRand(1)
		vals := make([][]float64, arms)
		for j := range vals {
			vals[j] = make([]float64, c.n)
			for i := range vals[j] {
				vals[j][i] = math.Ldexp(1, (i*7+j)%64) / 4096
			}
		}
		tab := NewTable(vals, NewLogHistogram(0, -8, 20))
		idx := make([]uint16, 256)
		for i := range idx {
			idx[i] = uint16(rng.Intn(c.n))
		}
		cases = append(cases, tableCase{c.name, tab, idx})
	}
	kernelPaths(b, func(b *testing.B) {
		for _, c := range cases {
			b.Run(c.name, func(b *testing.B) {
				accs := armsOf(func() Accumulator { return NewLogHistogram(0, -8, 20) }, arms)
				var s TableScratch
				b.ReportAllocs()
				for b.Loop() {
					accs.AddTable(c.tab, c.idx, 1e-6, &s)
				}
			})
		}
	})
}
