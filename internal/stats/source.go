package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Source is the Go 1 additive lagged Fibonacci generator that
// rand.NewSource returns (lags 607 and 273, seeded through seedrand),
// owned here so the package can draw from it without interface calls:
// the same seed gives the same Int63 and Uint64 stream as
// rand.NewSource(seed). It implements rand.Source64, so rand.New(s)
// draws exactly what rand.New(rand.NewSource(seed)) draws. rand.Rand
// buffers nothing on its Int63-based methods (only Read does), so a
// caller may interleave draws through a *rand.Rand on a Source with
// draws through the Source itself and still see one stream.
type Source struct {
	// tap and feed are the register slots of the last step; each step
	// decrements both (wrapping below 0) and stores vec[feed]+vec[tap]
	// in vec[feed]. feed-tap is 334 or -273 modulo wrapping.
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen   = 607
	srcTap   = 273
	mask63   = 1<<63 - 1
	int32max = 1<<31 - 1

	// redrawAt is the smallest Int63 value rand.Float64 draws again:
	// float64(v) rounds to 2^63 for every v >= 2^63 - 2^9, which would
	// make the float 1.0.
	redrawAt = 1<<63 - 1<<9
)

// cooked is the generator's seeding table (math/rand's rngCooked). It is
// recovered once from the toolchain's own rand.NewSource(1), not copied:
//
//  1. the source's first srcLen Uint64 outputs fill the register, since
//     the first srcLen steps write every slot once, in feed order;
//  2. undoing those steps newest first (vec[feed] -= vec[tap]) restores
//     the register Seed(1) left;
//  3. that register is seedrand(1)'s part XOR the table, and Seed with
//     a still-zero table yields exactly the seedrand part.
var cooked [srcLen]int64

func init() {
	ref := rand.NewSource(1).(rand.Source64)
	var s Source
	s.tap, s.feed = 0, srcLen-srcTap
	for i := 0; i < srcLen; i++ {
		s.step()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for i := 0; i < srcLen; i++ {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%srcLen, (s.feed+1)%srcLen
	}
	var part Source
	part.Seed(1) // cooked is still all zero here
	for i := range cooked {
		cooked[i] = s.vec[i] ^ part.vec[i]
	}
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// seedrand advances the seeding generator x[n+1] = 48271 x[n] mod
// (2^31 - 1) (Schrage's method).
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < srcLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			s.vec[i] = u ^ cooked[i]
		}
	}
}

// step moves tap and feed to the next step's slots.
func (s *Source) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask63) }

// Bernoulli is the test rand.Float64() < p in integer form. Float64 is
// float64(v)/2^63 for the Int63 draw v, redrawn while that rounds to
// 1.0, and the predicate float64(v)/2^63 >= p is monotone in v; so the
// test holds exactly when the accepted draw is below cut, the smallest
// v at which the predicate holds. Mask runs it without floats.
type Bernoulli struct{ cut int64 }

// NewBernoulli returns the test rand.Float64() < p for any p: a NaN or
// p <= 0 never passes, p > 1 always does. The cut is found by bisection
// over the predicate itself, so it reproduces the float test bit for
// bit.
func NewBernoulli(p float64) Bernoulli {
	if math.IsNaN(p) || p <= 0 {
		return Bernoulli{}
	}
	// The predicate fails at 0 (p > 0) and, for p <= 1, holds at
	// redrawAt, where float64(v)/2^63 is 1; for p > 1 every accepted
	// draw passes, which a cut of redrawAt also says.
	lo, hi := int64(0), int64(redrawAt)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid
		}
	}
	return Bernoulli{cut: hi}
}

// Mask runs the test on the next n draws of src (0 <= n <= 64) and
// returns them as a bit mask, bit i set when draw i passes: the mask n
// calls of rand.New(src).Float64() < p would give, consuming the same
// draws. A *Source draws the whole mask in blocks without interface
// calls; any other source is drawn one Int63 at a time, a *rand.Rand
// through a direct call, so each draw costs one dispatch (to the Rand's
// source) as Float64 does.
func (b Bernoulli) Mask(src rand.Source, n int) uint64 {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("stats: Bernoulli mask of %d draws outside [0,64]", n))
	}
	switch s := src.(type) {
	case *Source:
		return s.bernoulliMask(b, n)
	case *rand.Rand:
		var mask uint64
		for i := 0; i < n; i++ {
			v := s.Int63()
			for v >= redrawAt {
				v = s.Int63()
			}
			mask |= b.bit(v, i)
		}
		return mask
	}
	return b.each(src, n)
}

// each is Mask one Int63 draw at a time, with Float64's redraw.
func (b Bernoulli) each(src rand.Source, n int) uint64 {
	var mask uint64
	for i := 0; i < n; i++ {
		v := src.Int63()
		for v >= redrawAt {
			v = src.Int63()
		}
		mask |= b.bit(v, i)
	}
	return mask
}

// bit places the test of the accepted draw v at bit i.
func (b Bernoulli) bit(v int64, i int) uint64 {
	if v < b.cut {
		return 1 << uint(i)
	}
	return 0
}

// bernoulliMask is Mask on a Source. It cuts the n steps at register
// wraps into blocks; inside a block the steps read the tap slots
// [tap-k, tap) and write the feed slots [feed-k, feed), two ranges at
// least 273 slots apart, so no step reads a slot an earlier step of the
// block wrote and the block is one loop over two sub-slices in any
// order. A block that meets a draw Float64 would redraw (about once in
// 2^54) is undone, and the rest of the mask is drawn one step at a time.
func (s *Source) bernoulliMask(b Bernoulli, n int) uint64 {
	var mask uint64
	for done := 0; done < n; {
		// Slot 0 is the last before a wrap; srcLen names it so the
		// block below never wraps (step treats both alike).
		if s.tap == 0 {
			s.tap = srcLen
		}
		if s.feed == 0 {
			s.feed = srcLen
		}
		k := min(n-done, s.tap, s.feed)
		fs := s.vec[s.feed-k : s.feed]
		ts := s.vec[s.tap-k : s.tap]
		m, redraw := bernoulliBlock(fs, ts, b.cut)
		if redraw {
			for j := range fs {
				fs[j] -= ts[j]
			}
			return mask | b.each(s, n-done)<<uint(done)
		}
		s.tap -= k
		s.feed -= k
		mask |= m << uint(done)
		done += k
	}
	return mask
}

// bernoulliBlock runs the steps of one block, fs[j] += ts[j], and
// returns their test bits and whether any draw is one Float64 redraws.
// fs[j] is written by the block's step len(fs)-j, so iterating j up and
// shifting left puts step i's bit at position i. It stays a call of its
// own: inlined, the loop shares registers with bernoulliMask's state and
// the compiler spills the redraw accumulator on every step.
//
//go:noinline
func bernoulliBlock(fs, ts []int64, cut int64) (m uint64, redraw bool) {
	ts = ts[:len(fs)]
	var over uint64
	for j := range fs {
		x := fs[j] + ts[j]
		fs[j] = x
		v := uint64(x) & mask63
		over |= v + (1<<63 - redrawAt)
		m = m<<1 | uint64(int64(v)-cut)>>63
	}
	return m, over>>63 != 0
}
