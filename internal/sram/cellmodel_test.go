package sram

import (
	"math"
	"math/rand"
	"testing"

	"faultmem/internal/stats"
)

func TestPcellMonotoneDecreasingInVDD(t *testing.T) {
	m := Default28nm()
	prev := math.Inf(1)
	for v := 0.55; v <= 1.05; v += 0.01 {
		p := m.Pcell(v)
		if p >= prev {
			t.Fatalf("Pcell not strictly decreasing at V=%.2f: %g >= %g", v, p, prev)
		}
		if p <= 0 || p >= 1 {
			t.Fatalf("Pcell(%.2f) = %g outside (0,1)", v, p)
		}
		prev = p
	}
}

func TestPcellCalibrationAnchors(t *testing.T) {
	// The calibrated curve must reproduce the Fig. 2 shape within an
	// order of magnitude at the anchor voltages.
	m := Default28nm()
	anchors := []struct {
		vdd    float64
		lo, hi float64
	}{
		{1.00, 1e-11, 1e-8},
		{0.80, 1e-6, 1e-4},
		{0.73, 5e-5, 1e-3},
		{0.60, 3e-3, 5e-2},
	}
	for _, a := range anchors {
		p := m.Pcell(a.vdd)
		if p < a.lo || p > a.hi {
			t.Errorf("Pcell(%.2f) = %.3g outside [%g, %g]", a.vdd, p, a.lo, a.hi)
		}
	}
}

func TestYieldCollapsesAt073V(t *testing.T) {
	// §2: "the yield approaches zero for a 16KB memory operating at 0.73V".
	m := Default28nm()
	cells := Rows16KB(32) * 32
	if y := m.Yield(0.73, cells); y > 1e-6 {
		t.Errorf("16KB yield at 0.73V = %g, want ~0", y)
	}
	// And is essentially 1 at nominal voltage.
	if y := m.Yield(1.0, cells); y < 0.99 {
		t.Errorf("16KB yield at 1.0V = %g, want ~1", y)
	}
}

func TestVDDForPcellInverse(t *testing.T) {
	m := Default28nm()
	for _, p := range []float64{1e-8, 5e-6, 1e-4, 1e-3, 1e-2} {
		v := m.VDDForPcell(p)
		back := m.Pcell(v)
		if math.Abs(math.Log10(back)-math.Log10(p)) > 1e-6 {
			t.Errorf("VDDForPcell(%g) -> V=%.4f -> Pcell %g", p, v, back)
		}
	}
}

func TestCriticalVDDQuantileConsistency(t *testing.T) {
	// Pr(CriticalVDD(U) >= V) must equal Pcell(V): check by quantile
	// inversion at a few levels.
	m := Default28nm()
	for _, v := range []float64{0.65, 0.7, 0.8} {
		p := m.Pcell(v)
		// A cell exactly at quantile u = p has critical voltage v.
		vc := m.CriticalVDD(p)
		if math.Abs(vc-v) > 1e-9 {
			t.Errorf("CriticalVDD(Pcell(%.2f)) = %.6f, want %.2f", v, vc, v)
		}
	}
	// Extreme quantiles are clamped, not NaN.
	if math.IsNaN(m.CriticalVDD(0)) || math.IsNaN(m.CriticalVDD(1)) {
		t.Error("CriticalVDD NaN at extreme quantiles")
	}
}

func TestExpectedFailures(t *testing.T) {
	m := Default28nm()
	cells := 131072
	v := m.VDDForPcell(1e-3)
	got := m.ExpectedFailures(v, cells)
	if math.Abs(got-131.072) > 0.01 {
		t.Errorf("expected failures = %g, want ~131.07", got)
	}
}

func TestSixTDominantMechanismMatchesAnalytic(t *testing.T) {
	// At voltages where the read-stability mechanism dominates, the 6T IS
	// estimate should be close to the analytic margin model (within the
	// union-bound slack of the secondary mechanisms).
	cm := Default28nm()
	s := NewSixT()
	rng := stats.NewRand(1234)
	for _, vdd := range []float64{0.65, 0.7, 0.75} {
		want := cm.Pcell(vdd)
		got := s.EstimatePcellIS(rng, vdd, 20000)
		ratio := got / want
		if ratio < 0.8 || ratio > 3.0 {
			t.Errorf("V=%.2f: IS estimate %.3g vs analytic %.3g (ratio %.2f)",
				vdd, got, want, ratio)
		}
	}
}

func TestSixTISAgreesWithPlainMC(t *testing.T) {
	// At a voltage where plain MC is feasible, IS and MC must agree.
	s := NewSixT()
	vdd := 0.62 // Pcell ~ 1e-2: MC resolvable with 2e5 samples
	is := s.EstimatePcellIS(stats.NewRand(5), vdd, 20000)
	mc := s.estimatePcellMC(stats.NewRand(6), vdd, 200000)
	if mc == 0 {
		t.Fatal("MC found no failures; pick a lower voltage")
	}
	ratio := is / mc
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("IS %.4g vs MC %.4g (ratio %.3f)", is, mc, ratio)
	}
}

func TestSixTISMonotoneInVDD(t *testing.T) {
	s := NewSixT()
	rng := stats.NewRand(99)
	prev := math.Inf(1)
	for _, vdd := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		p := s.EstimatePcellIS(rng, vdd, 8000)
		if p >= prev {
			t.Fatalf("IS estimate not decreasing at V=%.2f: %g >= %g", vdd, p, prev)
		}
		prev = p
	}
}

func TestSixTFailsDeterministic(t *testing.T) {
	s := NewSixT()
	// Zero deviation never fails at positive margin.
	if s.Fails([6]float64{}, 0.8) {
		t.Error("nominal cell fails at 0.8V")
	}
	// A huge deviation along the read direction always fails.
	var x [6]float64
	for j := range x {
		x[j] = 20 * s.Dir[0][j]
	}
	if !s.Fails(x, 1.0) {
		t.Error("extreme deviation does not fail")
	}
}

func TestChi6Survival(t *testing.T) {
	// S(0) = 1; S decreasing; spot value: for chi^2_6, Pr(X > 12.592) = 0.05
	// => Pr(R > sqrt(12.592)) = 0.05.
	if chi6Survival(0) != 1 {
		t.Error("S(0) != 1")
	}
	if got := chi6Survival(math.Sqrt(12.591587243743977)); math.Abs(got-0.05) > 1e-4 {
		t.Errorf("chi6 5%% quantile: got %g", got)
	}
	if chi6Survival(1) <= chi6Survival(2) {
		t.Error("survival not decreasing")
	}
}

// estimatePcellMC estimates EstimatePcellIS's probability by plain Monte
// Carlo, the oracle for cross-validation at voltages where the
// probability is not too small.
func (s *SixT) estimatePcellMC(rng *rand.Rand, vdd float64, samples int) float64 {
	if samples <= 0 {
		panic("sram: non-positive sample count")
	}
	fails := 0
	for i := 0; i < samples; i++ {
		var x [6]float64
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if s.Fails(x, vdd) {
			fails++
		}
	}
	return float64(fails) / float64(samples)
}
