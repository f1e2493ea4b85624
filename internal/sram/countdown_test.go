package sram

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"faultmem/internal/stats"
)

// The soft-error countdown must draw exactly the i.i.d. Bernoulli(rate)
// process over the cells of successive reads. These tests check that
// distribution at fixed seeds, so each verdict is deterministic: a
// G-test fails below p = 1e-4 and logs its p-value.

// gTestPooled compares observed counts with expected counts (equal
// totals), merging adjacent cells from the low end up until each bin
// expects at least 5, and returns the G statistic, its degrees of
// freedom and the upper-tail p-value of chi-square by the
// Wilson–Hilferty approximation.
func gTestPooled(obs, exp []float64) (g float64, df int, p float64) {
	var bo, be []float64
	var o, e float64
	for i := range obs {
		o += obs[i]
		e += exp[i]
		if e >= 5 {
			bo, be = append(bo, o), append(be, e)
			o, e = 0, 0
		}
	}
	if len(bo) == 0 {
		return 0, 0, 1
	}
	bo[len(bo)-1] += o
	be[len(be)-1] += e
	for i := range bo {
		if bo[i] > 0 {
			g += 2 * bo[i] * math.Log(bo[i]/be[i])
		}
	}
	df = len(bo) - 1
	if df == 0 {
		return g, 0, 1
	}
	k := float64(df)
	z := (math.Cbrt(g/k) - (1 - 2/(9*k))) / math.Sqrt(2/(9*k))
	return g, df, 0.5 * math.Erfc(z/math.Sqrt2)
}

func checkG(t *testing.T, what string, obs, exp []float64) {
	t.Helper()
	g, df, p := gTestPooled(obs, exp)
	t.Logf("%s: G = %.1f, df %d, p = %.4f", what, g, df, p)
	if p < 1e-4 {
		t.Errorf("%s: G = %.1f on %d df, p = %.2g", what, g, df, p)
	}
}

// readFlips reads a zeroed width-bit array reads times at the given
// soft-error rate, row by row through Read or in pages of 1000 rows
// through ReadBatch, and calls visit with each read's flip mask in read
// order.
func readFlips(width int, rate float64, seed int64, reads int, batch bool, visit func(mask uint64)) {
	const page = 1000
	a := NewArray(page, width)
	a.SetTransient(rate, rand.NewSource(seed))
	out := make([]uint64, page)
	for done := 0; done < reads; {
		k := min(page, reads-done)
		if batch {
			a.ReadBatch(0, out[:k])
		} else {
			for r := 0; r < k; r++ {
				out[r] = a.Read(r)
			}
		}
		for _, v := range out[:k] {
			visit(v)
		}
		done += k
	}
}

var (
	countdownWidths = []int{22, 32, 39}
	countdownRates  = []float64{1e-3, 0.02, 0.3}
)

func countdownReads() int {
	if testing.Short() {
		return 100_000
	}
	return 1_000_000
}

func pathName(batch bool) string {
	if batch {
		return "ReadBatch"
	}
	return "Read"
}

// TestTransientFlipCountBinomial compares the number of flips per read
// with Binomial(width, rate).
func TestTransientFlipCountBinomial(t *testing.T) {
	reads := countdownReads()
	for wi, width := range countdownWidths {
		for ri, rate := range countdownRates {
			for _, batch := range []bool{false, true} {
				seed := int64(1000 + 100*wi + 10*ri)
				if batch {
					seed++
				}
				obs := make([]float64, width+1)
				readFlips(width, rate, seed, reads, batch, func(v uint64) { obs[bits.OnesCount64(v)]++ })
				exp := make([]float64, width+1)
				for k := range exp {
					exp[k] = float64(reads) * stats.BinomialPMF(width, rate, k)
				}
				checkG(t, fmt.Sprintf("flips per read, width %d rate %g %s", width, rate, pathName(batch)), obs, exp)
			}
		}
	}
}

// TestTransientGapsGeometric compares the gaps between successive flips,
// counted in cells across read boundaries (the first gap from the first
// cell read), with Geometric(rate) on {0, 1, ...}.
func TestTransientGapsGeometric(t *testing.T) {
	reads := countdownReads()
	for _, width := range []int{22, 39} {
		for ri, rate := range countdownRates {
			for _, batch := range []bool{false, true} {
				seed := int64(2000 + 100*width + 10*ri)
				if batch {
					seed++
				}
				top := int(40 / rate) // the last cell holds every gap >= top
				obs := make([]float64, top+1)
				prev, base := int64(-1), int64(0)
				readFlips(width, rate, seed, reads, batch, func(v uint64) {
					for ; v != 0; v &= v - 1 {
						pos := base + int64(bits.TrailingZeros64(v))
						obs[min(int(pos-prev-1), top)]++
						prev = pos
					}
					base += int64(width)
				})
				n := 0.0
				for _, o := range obs {
					n += o
				}
				exp := make([]float64, top+1)
				for k := 0; k < top; k++ {
					exp[k] = n * rate * math.Pow(1-rate, float64(k))
				}
				exp[top] = n * math.Pow(1-rate, float64(top))
				checkG(t, fmt.Sprintf("gaps, width %d rate %g %s", width, rate, pathName(batch)), obs, exp)
			}
		}
	}
}

// TestTransientColumnsUniform checks that every column of the word
// flips equally often, the first and last included.
func TestTransientColumnsUniform(t *testing.T) {
	reads := countdownReads()
	for _, width := range []int{22, 32, 39, 64} {
		for ri, rate := range []float64{0.02, 0.3} {
			for _, batch := range []bool{false, true} {
				seed := int64(3000 + 100*width + 10*ri)
				if batch {
					seed++
				}
				obs := make([]float64, width)
				readFlips(width, rate, seed, reads, batch, func(v uint64) {
					for ; v != 0; v &= v - 1 {
						obs[bits.TrailingZeros64(v)]++
					}
				})
				total := 0.0
				for _, o := range obs {
					total += o
				}
				exp := make([]float64, width)
				for c := range exp {
					exp[c] = total / float64(width)
				}
				checkG(t, fmt.Sprintf("columns, width %d rate %g %s", width, rate, pathName(batch)), obs, exp)
			}
		}
	}
}

// TestTransientFlipsFollowGaps pins the countdown exactly: with reads of
// every size mixed (scalar, single-row and multi-row batches), the cells
// that flip are those the documented gap draws name, one Int63 per flip,
// each flip followed by gap non-flipping cells across read boundaries.
func TestTransientFlipsFollowGaps(t *testing.T) {
	const rows, width, rate, seed = 257, 39, 0.01, 41
	a := NewArray(rows, width)
	a.SetTransient(rate, rand.NewSource(seed))
	var got []uint64
	out := make([]uint64, rows)
	for i, r := 0, 0; len(got) < 40*rows; i++ {
		k := []int{0, 1, 3, 1, 17, 0, 64, 200}[i%8]
		if k == 0 {
			got = append(got, a.Read(r))
			r = (r + 1) % rows
			continue
		}
		k = min(k, rows-r)
		a.ReadBatch(r, out[:k])
		got = append(got, out[:k]...)
		r = (r + k) % rows
	}
	ref := rand.NewSource(seed)
	scale := 1 / math.Log1p(-rate)
	gap := func() int64 {
		u := float64(ref.Int63()>>10+1) * 0x1p-53
		return int64(math.Log(u) * scale)
	}
	want := make([]uint64, len(got))
	flips := 0
	for pos := gap(); pos < int64(len(want))*width; pos += 1 + gap() {
		want[pos/width] |= 1 << uint(pos%width)
		flips++
	}
	if flips < 100 {
		t.Fatalf("only %d flips; the test needs more", flips)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("read %d: flip mask %#x, want %#x from the gap draws", i, got[i], want[i])
		}
	}
}

// TestTransientRearmReproduces checks that SetTransient resets the
// countdown: re-arming with a source reseeded to the same seed flips
// the same cells again, though the first arming left a countdown
// mid-gap.
func TestTransientRearmReproduces(t *testing.T) {
	const rows, seed = 300, 77
	for _, batch := range []bool{false, true} {
		a := NewArray(rows, 39)
		src := rand.NewSource(seed)
		read := func() []uint64 {
			out := make([]uint64, 0, 3*rows)
			page := make([]uint64, rows)
			for pass := 0; pass < 3; pass++ {
				if batch {
					a.ReadBatch(0, page)
				} else {
					for r := range page {
						page[r] = a.Read(r)
					}
				}
				out = append(out, page...)
			}
			return out
		}
		a.SetTransient(0.02, src)
		first := read()
		src.Seed(seed)
		a.SetTransient(0.02, src)
		second := read()
		flipped := 0
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: read %d after re-arming: %#x, first arming %#x", pathName(batch), i, second[i], first[i])
			}
			flipped += bits.OnesCount64(first[i])
		}
		if flipped == 0 {
			t.Fatalf("%s: no soft error in %d reads", pathName(batch), len(first))
		}
	}
}

// TestTransientRateZeroDrawsNothing checks that an array with rate 0,
// and an armed array before its first read, leave the source's next
// value untouched.
func TestTransientRateZeroDrawsNothing(t *testing.T) {
	const seed = 9
	want := rand.NewSource(seed).Int63()
	src := rand.NewSource(seed)
	a := NewArray(64, 32)
	a.SetTransient(0.1, src) // armed, not yet read
	a.SetTransient(0, src)
	out := make([]uint64, 64)
	for i := 0; i < 10; i++ {
		a.ReadBatch(0, out)
		_ = a.Read(i)
	}
	if got := src.Int63(); got != want {
		t.Fatalf("source's next value %d after rate-0 reads, want %d", got, want)
	}
}
