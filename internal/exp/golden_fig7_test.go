package exp

import (
	"math"
	"testing"

	"faultmem/internal/workload"
)

// fig7Golden holds the quality samples of the fig7 engine at
// DefaultFig7Params with Trials=5 (Rows=4096, Pcell=1e-3, Seed=7), as
// float64 bit patterns. They were captured before the trial pipeline
// moved into internal/workload, and captured again, once, when the
// die's fault count became an exact Binomial draw (before, a mean above
// 50 drew a rounded normal). Arm order follows Fig7Arms(): No
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
			{0x0000000000000000, 0x3fefe8b61029e57b, 0x3fefedaa821f3f59, 0x3fefee923914b6aa, 0x3feff2fee53a6997},
			{0x0000000000000000, 0x3fe01a3021e1967a, 0x3fec3e8a3b04e906, 0x3feff0b159c77099, 0x3feff42df0400dc9},
			{0x3feff254cf8536ee, 0x3fefff324e7adb25, 0x3fefffeac9bac637, 0x3ff0000000000000, 0x3ff0000000000000},
		},
	},
	workload.PCA: {
		cleanBits: 0x3fea99277525cddd,
		arms: [4][5]uint64{
			{0x3fa197cda318b4ff, 0x3fc7910deaf06868, 0x3fcb698484b0fc72, 0x3fcbc2ed4e162cdc, 0x3fddb7cdbf2549e8},
			{0x3f5d718411227a37, 0x3feffffb245940dc, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000},
			{0x3fa631b72e26feb2, 0x3fbc104fb172794b, 0x3feff3e3e8aed97d, 0x3feffffc224b649e, 0x3ff0000000000000},
			{0x3feffff182815205, 0x3feffff8740542b7, 0x3fefffffabfd1eb0, 0x3ff0000000000000, 0x3ff0000000000000},
		},
	},
	workload.KNN: {
		cleanBits: 0x3fec0da740da740e,
		arms: [4][5]uint64{
			{0x3fee4bec88461569, 0x3feec8846156a195, 0x3feee7aa579ac49f, 0x3fef25f644230ab5, 0x3fef644230ab50ca},
			{0x3fefa28e1d3396e0, 0x3fefc1b41377b9ea, 0x3fefc1b41377b9ea, 0x3fefe0da09bbdcf5, 0x3fefe0da09bbdcf5},
			{0x3fef451c3a672dc0, 0x3fef836826ef73d4, 0x3fef836826ef73d4, 0x3fefa28e1d3396e0, 0x3ff0000000000000},
			{0x3fefa28e1d3396e0, 0x3fefc1b41377b9ea, 0x3fefc1b41377b9ea, 0x3fefe0da09bbdcf5, 0x3fefe0da09bbdcf5},
		},
	},
}

// TestFig7GoldenEquivalence pins the fig7 engine's quality samples bit
// for bit, at every worker count that exercises a different shard split
// (1, 4, 7).
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
