package yield

import (
	"math"
	"runtime"
	"testing"

	"faultmem/internal/mc"
)

// msecdfSweep runs MSECDFSweepMapEnv under the zero Env and keeps every
// point's results.
func msecdfSweep(tb testing.TB, base CDFParams, pcells []float64, schemes []Scheme) [][]CDFResult {
	tb.Helper()
	out, err := MSECDFSweepMapEnv(mc.Env{}, base, pcells, schemes,
		func(_ int, rs []CDFResult) []CDFResult { return rs })
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestMSECDFSweepMatchesSerial is the contract the yieldcalc -sweep CLI
// rides on: evaluating the voltage points concurrently on the engine
// must give bit-identical results to the serial per-point loop at the
// same seed.
func TestMSECDFSweepMatchesSerial(t *testing.T) {
	base := DefaultCDFParams()
	base.Trun = 5e3
	base.MaxPerCount = 2000
	schemes := fig5Schemes()[:3]
	pcells := []float64{5e-6, 1e-4, 1e-3, 5e-3}

	sweep := msecdfSweep(t, base, pcells, schemes)
	if len(sweep) != len(pcells) {
		t.Fatalf("%d sweep points, want %d", len(sweep), len(pcells))
	}
	for i, pc := range pcells {
		q := base
		q.Pcell = pc
		serial := msecdfAll(t, q, schemes)
		for j := range schemes {
			a, b := serial[j], sweep[i][j]
			if a.Samples != b.Samples {
				t.Fatalf("pcell %g %s: samples %d != %d", pc, a.Scheme, b.Samples, a.Samples)
			}
			if math.Float64bits(a.CDF.TotalWeight()) != math.Float64bits(b.CDF.TotalWeight()) {
				t.Fatalf("pcell %g %s: total weight differs", pc, a.Scheme)
			}
			for _, target := range []float64{1e2, 1e4, 1e6, 1e8} {
				ya, yb := a.YieldAtMSE(target), b.YieldAtMSE(target)
				if math.Float64bits(ya) != math.Float64bits(yb) {
					t.Fatalf("pcell %g %s: yield@%g %v != %v", pc, a.Scheme, target, yb, ya)
				}
			}
		}
	}
}

// TestMSECDFSweepWorkerCountInvariance extends the determinism contract
// to the sweep: the outer engine's worker count cannot change any
// point's result.
func TestMSECDFSweepWorkerCountInvariance(t *testing.T) {
	base := DefaultCDFParams()
	base.Trun = 5e3
	base.MaxPerCount = 2000
	schemes := fig5Schemes()[:2]
	pcells := []float64{5e-6, 5e-4, 5e-3}

	run := func(workers int) [][]CDFResult {
		b := base
		b.Workers = workers
		return msecdfSweep(t, b, pcells, schemes)
	}
	ref := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(w)
		for i := range ref {
			for j := range ref[i] {
				qa := ref[i][j].MSEAtYield(0.9)
				qb := got[i][j].MSEAtYield(0.9)
				if math.Float64bits(qa) != math.Float64bits(qb) {
					t.Fatalf("workers=%d point %d %s: MSE@0.9 %v != %v",
						w, i, ref[i][j].Scheme, qb, qa)
				}
			}
		}
	}
}
