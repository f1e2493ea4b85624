// Package stats provides the statistical plumbing shared by the fault
// injectors, the yield model, and the experiment harness: seeded RNG
// helpers, discrete distributions in log space, empirical (weighted) CDFs,
// and basic descriptive statistics.
//
// Everything is deterministic given an explicit seed so that every paper
// exhibit regenerates bit-for-bit.
package stats

import "math/rand"

// NewRand returns a rand.Rand seeded with the given seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Derive returns a child RNG deterministically derived from parent seed and
// a stream index, so that independent experiment arms draw from
// non-overlapping, reproducible streams.
func Derive(seed int64, stream int64) *rand.Rand {
	return NewRand(DeriveSeed(seed, stream))
}

// DeriveSeed mixes (seed, stream) into a child seed with SplitMix64-style
// finalization. Nested sweeps use it to give every (outer point, shard)
// pair its own reproducible stream: DeriveSeed the outer index, then hand
// the child seed to the mc engine, which Derives per-shard streams.
func DeriveSeed(seed int64, stream int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// SampleDistinct draws k distinct integers from [0, n) uniformly at random.
// It panics if k > n or either is negative. The result order is random.
//
// For k much smaller than n it uses rejection from a set; otherwise it
// performs a partial Fisher-Yates shuffle.
func SampleDistinct(rng *rand.Rand, n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("stats: SampleDistinct requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	if k*8 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := rng.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return append([]int(nil), perm[:k]...)
}
