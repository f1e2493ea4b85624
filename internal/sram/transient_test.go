package sram

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"faultmem/internal/stats"
)

func TestTransientDisabledByDefault(t *testing.T) {
	a := NewArray(4, 32)
	a.Write(0, 0xDEADBEEF)
	for i := 0; i < 100; i++ {
		if a.Read(0) != 0xDEADBEEF {
			t.Fatal("transient flips with rate 0")
		}
	}
}

func TestTransientRateStatistics(t *testing.T) {
	a := NewArray(1, 32)
	a.SetTransient(0.25, stats.NewRand(3))
	a.Write(0, 0)
	flips := 0
	const reads = 2000
	for i := 0; i < reads; i++ {
		v := a.Read(0)
		for ; v != 0; v &= v - 1 {
			flips++
		}
	}
	got := float64(flips) / float64(reads*32)
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("observed flip rate %.4f, want ~0.25", got)
	}
}

func TestTransientDoesNotCorruptStorage(t *testing.T) {
	// Soft errors are read disturbances in this model: the stored value
	// must stay intact underneath.
	a := NewArray(1, 32)
	a.SetTransient(0.5, stats.NewRand(4))
	a.Write(0, 0xA5A5A5A5)
	for i := 0; i < 50; i++ {
		_ = a.Read(0)
	}
	if a.Peek(0) != 0xA5A5A5A5 {
		t.Error("transient reads corrupted storage")
	}
	// Disabling restores clean reads.
	a.SetTransient(0, nil)
	if a.Read(0) != 0xA5A5A5A5 {
		t.Error("disable did not restore clean reads")
	}
}

func TestTransientValidation(t *testing.T) {
	a := NewArray(1, 8)
	for _, bad := range []float64{-0.1, 1.0, 2, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %g accepted", bad)
				}
			}()
			a.SetTransient(bad, stats.NewRand(1))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil RNG accepted with positive rate")
			}
		}()
		a.SetTransient(0.1, nil)
	}()
	// A NaN rate is refused as a rate, before the RNG is looked at.
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "outside [0,1)") {
				t.Errorf("NaN rate with nil RNG: panic %q, want the rate message", msg)
			}
		}()
		a.SetTransient(math.NaN(), nil)
	}()
}

// TestTransientSourceMatchesPerDraw pins the soft-error draw to the
// source's stream at the array level: a plain rand.NewSource(seed) and
// a *rand.Rand over the same seed give the same words, for scalar and
// batch reads interleaved, at every width class the arms use.
func TestTransientSourceMatchesPerDraw(t *testing.T) {
	const rows = 700
	for _, width := range []int{1, 8, 22, 32, 39, 64} {
		for _, rate := range []float64{1e-4, 0.02, 0.5} {
			plain, viaRand := NewArray(rows, width), NewArray(rows, width)
			if err := plain.SetFaults(faultAt(3, width-1)); err != nil {
				t.Fatal(err)
			}
			if err := viaRand.SetFaults(faultAt(3, width-1)); err != nil {
				t.Fatal(err)
			}
			plain.SetTransient(rate, rand.NewSource(int64(width)))
			viaRand.SetTransient(rate, rand.New(rand.NewSource(int64(width))))
			for r := 0; r < rows; r++ {
				plain.Write(r, uint64(r)*0x9E3779B97F4A7C15)
				viaRand.Write(r, uint64(r)*0x9E3779B97F4A7C15)
			}
			got, want := make([]uint64, rows), make([]uint64, rows)
			for pass := 0; pass < 3; pass++ {
				plain.ReadBatch(0, got)
				viaRand.ReadBatch(0, want)
				for r := 0; r < rows; r += 7 {
					got[r], want[r] = plain.Read(r), viaRand.Read(r)
				}
				for r := range got {
					if got[r] != want[r] {
						t.Fatalf("width %d rate %g pass %d row %d: rand.Source %#x, rand.Rand %#x", width, rate, pass, r, got[r], want[r])
					}
				}
			}
		}
	}
}

// TestTransientReadsDoNotAllocate pins warm soft-error reads at zero
// allocations on either kind of source.
func TestTransientReadsDoNotAllocate(t *testing.T) {
	for name, src := range map[string]rand.Source{
		"rand.Source": rand.NewSource(5),
		"rand.Rand":   rand.New(rand.NewSource(5)),
	} {
		a := NewArray(512, 39)
		a.SetTransient(1e-3, src)
		out := make([]uint64, 512)
		if allocs := testing.AllocsPerRun(20, func() {
			a.ReadBatch(0, out)
			_ = a.Read(7)
		}); allocs != 0 {
			t.Errorf("%s: warm soft-error reads allocate %v times, want 0", name, allocs)
		}
	}
}

// BenchmarkTransientRead reads one 4096-row page of 32-bit words at a
// soft-error rate of 1e-4 (about 13 flips among 131072 cells), drawing
// from a plain rand.Source or from a *rand.Rand.
func BenchmarkTransientRead(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"rand.Source", rand.NewSource(1)},
		{"rand.Rand", rand.New(rand.NewSource(1))},
	} {
		b.Run(c.name, func(b *testing.B) {
			a := NewArray(Rows16KB(32), 32)
			a.SetTransient(1e-4, c.src)
			out := make([]uint64, a.Rows())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ReadBatch(0, out)
			}
		})
	}
}

func TestTransientComposesWithPersistentFaults(t *testing.T) {
	// A persistent flip fault and transients combine by XOR: over many
	// reads of zero data, the persistently faulty bit must read 1 far
	// more often than any clean bit.
	a := NewArray(1, 32)
	if err := a.SetFaults(faultAt(0, 7)); err != nil {
		t.Fatal(err)
	}
	a.SetTransient(0.05, stats.NewRand(9))
	a.Write(0, 0)
	countFaulty, countClean := 0, 0
	const reads = 1000
	for i := 0; i < reads; i++ {
		v := a.Read(0)
		if v&(1<<7) != 0 {
			countFaulty++
		}
		if v&(1<<8) != 0 {
			countClean++
		}
	}
	if countFaulty < reads*8/10 {
		t.Errorf("persistent bit read 1 only %d/%d times", countFaulty, reads)
	}
	if countClean > reads/5 {
		t.Errorf("clean bit read 1 %d/%d times at rate 0.05", countClean, reads)
	}
}
