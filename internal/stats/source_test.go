package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds covers the seeding corner cases: zero (which Seed maps to
// a fixed seed), negatives, the int32max modulus and its neighbours, and
// values far above it.
var sourceSeeds = []int64{
	0, 1, -1, 7, -7, 89482311,
	1<<31 - 1, 1<<31 - 2, 1 << 31, -(1<<31 - 1), -(1 << 31),
	1<<40 + 3, math.MaxInt64, math.MinInt64, -4093867212345,
}

// TestSourceMatchesStdlib pins Source to math/rand's own generator:
// every rand.Rand method draws the same values on a Source as on
// rand.NewSource with the same seed, before and after a re-Seed. Int63
// and Uint64 reach the sources' own methods directly.
func TestSourceMatchesStdlib(t *testing.T) {
	for _, seed := range sourceSeeds {
		got := rand.New(NewSource(seed))
		want := rand.New(rand.NewSource(seed))
		compareRands(t, seed, got, want)
		reseed := seed*31 + 5
		got.Seed(reseed)
		want.Seed(reseed)
		compareRands(t, reseed, got, want)
	}
}

func compareRands(t *testing.T, seed int64, got, want *rand.Rand) {
	t.Helper()
	// 1500 draws per method wrap the 607-slot register a few times.
	for i := 0; i < 1500; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
		}
		if g, w := got.Intn(1000+i), want.Intn(1000+i); g != w {
			t.Fatalf("seed %d: Intn draw %d = %d, want %d", seed, i, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
			t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, i, g, w)
		}
	}
	gp, wp := got.Perm(97), want.Perm(97)
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("seed %d: Perm[%d] = %d, want %d", seed, i, gp[i], wp[i])
		}
	}
}

// bernoulliRates are the rates the block mask is pinned at, from a
// cut near 0 to one just under the redraw threshold.
var bernoulliRates = []float64{1e-9, 1e-4, 0.3, 0.5, math.Nextafter(1, 0)}

// TestBernoulliCut checks the cut is the boundary of the float test.
func TestBernoulliCut(t *testing.T) {
	for _, p := range append([]float64{5e-324, 0x1p-64, 0x1p-63, 1e-300, 0.1, 1}, bernoulliRates...) {
		cut := NewBernoulli(p).cut
		if cut < 1 || cut > redrawAt {
			t.Fatalf("p %g: cut %d outside [1, redrawAt]", p, cut)
		}
		if !(float64(cut)/(1<<63) >= p) || !(float64(cut-1)/(1<<63) < p) {
			t.Errorf("p %g: cut %d is not the first v with float64(v)/2^63 >= p", p, cut)
		}
	}
	for _, p := range []float64{math.NaN(), 0, -0.5, math.Inf(-1)} {
		if cut := NewBernoulli(p).cut; cut != 0 {
			t.Errorf("p %g: cut %d, want 0 (never passes)", p, cut)
		}
	}
	for _, p := range []float64{1.5, math.Inf(1)} {
		if cut := NewBernoulli(p).cut; cut != redrawAt {
			t.Errorf("p %g: cut %d, want redrawAt (always passes)", p, cut)
		}
	}
}

// floatMask is the oracle: n draws of rng.Float64() < p.
func floatMask(rng *rand.Rand, p float64, n int) uint64 {
	var m uint64
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			m |= 1 << uint(i)
		}
	}
	return m
}

// TestBernoulliMaskMatchesFloat64 pins the block mask, and the per-draw
// paths of a *rand.Rand and of any other source, to n Float64() < p
// tests on a stdlib oracle, for every n up to 64. Each (rate, n) pair draws past two
// register wraps, so blocks that cross a wrap are covered too.
func TestBernoulliMaskMatchesFloat64(t *testing.T) {
	for ri, p := range bernoulliRates {
		b := NewBernoulli(p)
		for n := 0; n <= 64; n++ {
			seed := int64(1000*ri + n)
			src := NewSource(seed)
			perDraw := rand.NewSource(seed)
			perRand := rand.New(rand.NewSource(seed))
			oracle := rand.New(rand.NewSource(seed))
			wraps := 0
			for drawn := 0; drawn < 2*srcLen+n; drawn += max(n, 1) {
				if src.tap < n || src.feed < n {
					wraps++
				}
				want := floatMask(oracle, p, n)
				if got := b.Mask(src, n); got != want {
					t.Fatalf("p %g n %d after %d draws: block mask %#x, want %#x", p, n, drawn, got, want)
				}
				if got := b.Mask(perDraw, n); got != want {
					t.Fatalf("p %g n %d after %d draws: per-draw mask %#x, want %#x", p, n, drawn, got, want)
				}
				if got := b.Mask(perRand, n); got != want {
					t.Fatalf("p %g n %d after %d draws: rand.Rand mask %#x, want %#x", p, n, drawn, got, want)
				}
			}
			if n > 1 && wraps == 0 {
				t.Fatalf("p %g n %d: no block crossed a register wrap", p, n)
			}
			if g, w := src.Int63(), oracle.Int63(); g != w {
				t.Fatalf("p %g n %d: stream out of step after the masks: %d, want %d", p, n, g, w)
			}
		}
	}
}

// TestBernoulliMaskRedraw crafts registers whose next block meets draws
// Float64 redraws, at every position of a block, inside a wrapping
// block, twice in a row, and just below the threshold. The oracle is
// rand.Rand's own Float64 on a copy of the crafted source.
func TestBernoulliMaskRedraw(t *testing.T) {
	type plant struct {
		step int   // which step of the block (0-based) draws it
		v    int64 // the planted Int63 value
	}
	cases := []struct {
		name    string
		advance int // draws before the block, positioning the indices
		n       int
		plants  []plant
	}{
		{"first step", 100, 64, []plant{{0, redrawAt}}},
		{"middle step", 100, 39, []plant{{17, redrawAt + 100}}},
		{"last step", 100, 32, []plant{{31, mask63}}},
		{"twice in a row", 100, 32, []plant{{5, redrawAt}, {6, redrawAt + 1}}},
		{"below threshold", 100, 32, []plant{{3, redrawAt - 1}}},
		{"after a wrap", 590, 40, []plant{{30, redrawAt}}},
		{"before a wrap", 590, 40, []plant{{2, redrawAt + 7}}},
	}
	for _, c := range cases {
		for _, p := range bernoulliRates {
			src := NewSource(3)
			for i := 0; i < c.advance; i++ {
				src.Uint64()
			}
			for _, pl := range c.plants {
				// Step i adds vec[tap-1-i] into vec[feed-1-i] (mod srcLen).
				tap := ((src.tap-1-pl.step)%srcLen + srcLen) % srcLen
				feed := ((src.feed-1-pl.step)%srcLen + srcLen) % srcLen
				src.vec[feed] = pl.v - src.vec[tap]
			}
			cp := *src
			oracle := rand.New(&cp)
			want := floatMask(oracle, p, c.n)
			if got := NewBernoulli(p).Mask(src, c.n); got != want {
				t.Fatalf("%s p %g: mask %#x, want %#x", c.name, p, got, want)
			}
			if g, w := src.Int63(), oracle.Int63(); g != w {
				t.Fatalf("%s p %g: stream out of step after the mask: %d, want %d", c.name, p, g, w)
			}
		}
	}
}

// TestBernoulliMaskBounds rejects masks wider than 64 draws.
func TestBernoulliMaskBounds(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n = %d accepted", n)
				}
			}()
			NewBernoulli(0.5).Mask(NewSource(1), n)
		}()
	}
}
