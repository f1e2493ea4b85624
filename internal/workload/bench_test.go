package workload_test

import (
	"testing"

	"faultmem/internal/exp"
	"faultmem/internal/mat"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
)

// BenchmarkWorkloadTrial measures one warm Monte-Carlo trial per
// registered workload — fault map plus all eight protection arms
// (round-trip + run + score), the unit the workloads campaign's Trials
// budget scales by.
func BenchmarkWorkloadTrial(b *testing.B) {
	prots := exp.AllProtections()
	arms := make([]workload.Arm, len(prots))
	for i, p := range prots {
		arms[i] = p
	}
	for _, id := range workload.All() {
		b.Run(id.String(), func(b *testing.B) {
			wl, err := id.Workload()
			if err != nil {
				b.Fatal(err)
			}
			inst, err := wl.Prepare(workload.Params{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			runner := workload.NewTrialRunner(inst, workload.Config{
				Name:  id.String(),
				Rows:  4096,
				Pcell: 1e-3,
				Arms:  arms,
			})
			seedBase := stats.DeriveSeed(7, 1000)
			var buf []float64
			if buf, err = runner.RunTrial(seedBase, 0, buf[:0]); err != nil {
				b.Fatal(err) // warm every arm's scratch before timing
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = runner.RunTrial(seedBase, i+1, buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kernelPaths runs f once on each mat kernel path this CPU can take, as
// a sub-benchmark: "avx" when the CPU has AVX, then "go".
func kernelPaths(b *testing.B, f func(b *testing.B)) {
	saved := mat.UseAVX
	defer func() { mat.UseAVX = saved }()
	if saved {
		b.Run("avx", f)
	}
	mat.UseAVX = false
	b.Run("go", f)
}

// BenchmarkRecoveryTrial measures one warm trial across all eight arms
// per workload and recovery policy, with soft errors enabled so the
// detect-and-recover machinery actually engages: cgsolve's checked
// round trips over the plain cached baseline ("none"), and cgrestart's
// guarded iterates on top of them — the recovery-mem campaign's trial.
// Each runs on both mat kernel paths, which carry the CG's A·p.
func BenchmarkRecoveryTrial(b *testing.B) {
	prots := exp.AllProtections()
	arms := make([]workload.Arm, len(prots))
	for i, p := range prots {
		arms[i] = p
	}
	for _, id := range []workload.ID{workload.CGSolve, workload.CGRestart} {
		b.Run(id.String(), func(b *testing.B) {
			wl, err := id.Workload()
			if err != nil {
				b.Fatal(err)
			}
			inst, err := wl.Prepare(workload.Params{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			for _, kind := range workload.AllPolicies() {
				b.Run(kind.String(), func(b *testing.B) {
					runner := workload.NewTrialRunner(inst, workload.Config{
						Name:          id.String(),
						Rows:          4096,
						Pcell:         1e-3,
						Arms:          arms,
						Policy:        workload.RecoveryPolicy{Kind: kind, SafeWords: 256},
						TransientRate: 1e-4,
					})
					seedBase := stats.DeriveSeed(7, 1000)
					var buf []float64
					if buf, err = runner.RunTrial(seedBase, 0, buf[:0]); err != nil {
						b.Fatal(err) // warm every arm's scratch before timing
					}
					kernelPaths(b, func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; b.Loop(); i++ {
							if buf, err = runner.RunTrial(seedBase, i+1, buf[:0]); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
			}
		})
	}
}

// TestTransientTrialAllocs pins the warm soft-error trial's allocations
// at the fault map draw's 5: the runner reseeds its trial rand.Rand and
// every arm's source each trial, so the streams allocate nothing.
func TestTransientTrialAllocs(t *testing.T) {
	prots := exp.AllProtections()
	arms := make([]workload.Arm, len(prots))
	for i, p := range prots {
		arms[i] = p
	}
	for _, id := range []workload.ID{workload.CGRestart, workload.CGSolve} {
		wl, err := id.Workload()
		if err != nil {
			t.Fatal(err)
		}
		inst, err := wl.Prepare(workload.Params{Seed: 7, Dim: 32})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range workload.AllPolicies() {
			runner := workload.NewTrialRunner(inst, workload.Config{
				Name:          id.String(),
				Rows:          512,
				Pcell:         2e-3,
				Arms:          arms,
				Policy:        workload.RecoveryPolicy{Kind: kind, SafeWords: 256},
				TransientRate: 1e-3,
			})
			seedBase := stats.DeriveSeed(7, 1000)
			var buf []float64
			trial := 0
			for ; trial < 3; trial++ {
				if buf, err = runner.RunTrial(seedBase, trial, buf[:0]); err != nil {
					t.Fatal(err)
				}
			}
			// 50 runs, so a stray runtime allocation cannot round up.
			if allocs := testing.AllocsPerRun(50, func() {
				if buf, err = runner.RunTrial(seedBase, trial, buf[:0]); err != nil {
					t.Error(err)
				}
				trial++
			}); allocs > 5 {
				t.Errorf("%v %v: warm soft-error trial allocates %v times, want <= 5", id, kind, allocs)
			}
		}
	}
}
