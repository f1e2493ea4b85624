package exp

import (
	"math"
	"testing"

	"faultmem/internal/workload"
)

// fig7Golden holds the quality samples the PRE-refactor fig7 engine
// produced at DefaultFig7Params with Trials=5 (Rows=4096, Pcell=1e-3,
// Seed=7), captured as float64 bit patterns before the trial pipeline
// moved into internal/workload. Arm order follows Fig7Arms(): No
// Correction, H(22,16) P-ECC, nFM=1-Bit, nFM=2-Bit; each arm's
// qualities are sorted ascending as the engine returns them.
var fig7Golden = map[workload.ID]struct {
	cleanBits uint64
	arms      [4][5]uint64
}{
	workload.ElasticNet: {
		cleanBits: 0x3fd05fa52490794e,
		arms: [4][5]uint64{
			{0x0, 0x0, 0x0, 0x0, 0x0},
			{0x0000000000000000, 0x3fefea8f886d0a2f, 0x3feff12c7750c278, 0x3feff134e5a47305, 0x3feff2bffc5739ed},
			{0x0000000000000000, 0x3fe01b4f965f41fe, 0x3fec3fc6ed428d3f, 0x3feff06b96a1b710, 0x3feff49d47c4b6a4},
			{0x3feff25060884bac, 0x3fefff39a1d55993, 0x3fefffedaf3b3a98, 0x3ff0000000000000, 0x3ff0000000000000},
		},
	},
	workload.PCA: {
		cleanBits: 0x3fea99277525cddd,
		arms: [4][5]uint64{
			{0x3f99b80062799467, 0x3fc7c11cca02a9d0, 0x3fcee068f46d178c, 0x3fd134a3f8da502c, 0x3fd9bae9b2f68a18},
			{0x3f5d71840e62d691, 0x3fefffeb725fe2e2, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
			{0x3fa631d1def47b61, 0x3fbc103a4f138b97, 0x3feff3e52081b431, 0x3fefffee2eb6fdaf, 0x3ff0000000000000},
			{0x3feffff17541292b, 0x3feffff86a60ee1e, 0x3fefffff9a7c1098, 0x3ff0000000000000, 0x3ff0000000000000},
		},
	},
	workload.KNN: {
		cleanBits: 0x3fec0da740da740e,
		arms: [4][5]uint64{
			{0x3fee6b127e8a3875, 0x3fee8a3874ce5b7f, 0x3feee7aa579ac49f, 0x3fef06d04ddee7aa, 0x3fef836826ef73d4},
			{0x3fefa28e1d3396e0, 0x3fefa28e1d3396e0, 0x3fefc1b41377b9ea, 0x3fefe0da09bbdcf5, 0x3fefe0da09bbdcf5},
			{0x3fef451c3a672dc0, 0x3fef836826ef73d4, 0x3fef836826ef73d4, 0x3fef836826ef73d4, 0x3ff0000000000000},
			{0x3fefa28e1d3396e0, 0x3fefa28e1d3396e0, 0x3fefc1b41377b9ea, 0x3fefc1b41377b9ea, 0x3fefe0da09bbdcf5},
		},
	},
}

// TestFig7GoldenEquivalence pins the workload-layer refactor as
// provably behavior-preserving: the post-refactor engine must
// reproduce the pre-refactor quality samples bit for bit, at every
// worker count that exercises a different shard split (1, 4, 7).
func TestFig7GoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 7 Monte Carlo is slow")
	}
	for app, want := range fig7Golden {
		p := DefaultFig7Params(app)
		p.Trials = 5
		for _, workers := range []int{1, 4, 7} {
			p.Workers = workers
			res := fig7Run(t, p)
			if got := math.Float64bits(res.clean); got != want.cleanBits {
				t.Errorf("%v workers=%d: clean metric bits %#x, want %#x",
					app, workers, got, want.cleanBits)
			}
			if len(res.arms) != len(want.arms) {
				t.Fatalf("%v workers=%d: %d arms, want %d", app, workers, len(res.arms), len(want.arms))
			}
			for ai, arm := range res.arms {
				if len(arm.Qualities) != len(want.arms[ai]) {
					t.Fatalf("%v workers=%d arm %v: %d qualities, want %d",
						app, workers, arm.Scheme, len(arm.Qualities), len(want.arms[ai]))
				}
				for qi, q := range arm.Qualities {
					if got := math.Float64bits(q); got != want.arms[ai][qi] {
						t.Errorf("%v workers=%d arm %v sample %d: bits %#x (%.17g), want %#x",
							app, workers, arm.Scheme, qi, got, q, want.arms[ai][qi])
					}
				}
			}
		}
	}
}
