package yield

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"faultmem/internal/core"
)

func TestUnprotectedResidual(t *testing.T) {
	cols := []int{3, 17, 31}
	got := Unprotected{}.Residual(cols)
	if len(got) != 3 {
		t.Fatalf("residual count %d", len(got))
	}
	for i := range cols {
		if got[i] != cols[i] {
			t.Errorf("residual[%d] = %d", i, got[i])
		}
	}
	// Must be a copy, not an alias.
	got[0] = 99
	if cols[0] == 99 {
		t.Error("Residual aliased its input")
	}
}

func TestFullECCResidual(t *testing.T) {
	e := FullECC{}
	if got := e.Residual([]int{31}); len(got) != 0 {
		t.Errorf("single fault not corrected: %v", got)
	}
	if got := e.Residual(nil); len(got) != 0 {
		t.Errorf("no faults: %v", got)
	}
	if got := e.Residual([]int{3, 31}); len(got) != 2 {
		t.Errorf("double fault residual %v", got)
	}
}

func TestPriorityECCResidual(t *testing.T) {
	p := PriorityECC{}
	// Single upper fault: corrected.
	if got := p.Residual([]int{25}); len(got) != 0 {
		t.Errorf("single upper fault: %v", got)
	}
	// Lower fault: always residual.
	if got := p.Residual([]int{5}); len(got) != 1 || got[0] != 5 {
		t.Errorf("lower fault: %v", got)
	}
	// Two upper: uncorrectable, both residual.
	got := p.Residual([]int{20, 30})
	sort.Ints(got)
	if len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Errorf("two upper faults: %v", got)
	}
	// Mixed: lower persists, single upper corrected.
	if got := p.Residual([]int{5, 25}); len(got) != 1 || got[0] != 5 {
		t.Errorf("mixed faults: %v", got)
	}
}

func TestShuffledResidualBound(t *testing.T) {
	// Single-fault residual must respect b mod S for every nFM.
	for nfm := 1; nfm <= 5; nfm++ {
		s := NewShuffled(nfm)
		segSize := core.Config{Width: 32, NFM: nfm}.SegmentSize()
		for f := 0; f < 32; f++ {
			got := s.Residual([]int{f})
			if len(got) != 1 || got[0] != f%segSize {
				t.Errorf("nFM=%d f=%d: residual %v", nfm, f, got)
			}
		}
	}
}

func TestSchemeNames(t *testing.T) {
	if (Unprotected{}).Name() != "No Correction" ||
		NewShuffled(2).Name() != "nFM=2-Bit" ||
		(FullECC{}).Name() != "H(39,32) ECC" ||
		(PriorityECC{}).Name() != "H(22,16) P-ECC" {
		t.Error("scheme names wrong")
	}
}

func TestMSEEq6SingleFault(t *testing.T) {
	// Eq. (6): one failure at bit b in an R-row memory gives (2^b)^2 / R.
	rows := 4096
	for _, b := range []int{0, 15, 31} {
		got := MSEFromRowFaults(map[int][]int{7: {b}}, rows, Unprotected{})
		want := math.Ldexp(1, 2*b) / float64(rows)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("b=%d: MSE %g, want %g", b, got, want)
		}
	}
}

func TestMSEAdditiveOverFailures(t *testing.T) {
	rows := 64
	a := MSEFromRowFaults(map[int][]int{1: {5}}, rows, Unprotected{})
	b := MSEFromRowFaults(map[int][]int{2: {9}}, rows, Unprotected{})
	both := MSEFromRowFaults(map[int][]int{1: {5}, 2: {9}}, rows, Unprotected{})
	if math.Abs(both-(a+b)) > 1e-12 {
		t.Errorf("MSE not additive: %g vs %g", both, a+b)
	}
}

func TestMSEOrderingAcrossSchemes(t *testing.T) {
	// For any single fault, MSE obeys: shuffled(5) <= shuffled(1) <=
	// unprotected, and ECC = 0.
	f := func(colRaw uint8) bool {
		col := int(colRaw) % 32
		rf := map[int][]int{0: {col}}
		rows := 16
		un := MSEFromRowFaults(rf, rows, Unprotected{})
		s1 := MSEFromRowFaults(rf, rows, NewShuffled(1))
		s5 := MSEFromRowFaults(rf, rows, NewShuffled(5))
		eccv := MSEFromRowFaults(rf, rows, FullECC{})
		return s5 <= s1 && s1 <= un && eccv == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMSECDFOrderingFig5(t *testing.T) {
	// The Fig. 5 shape: at the median yield level, the tolerated MSE
	// must be ordered No-Correction >> nFM=1 >= nFM=2 >= ... >= nFM=5.
	p := DefaultCDFParams()
	p.Trun = 3e4 // keep the test fast; ordering is robust
	un := msecdfAll(t, p, []Scheme{Unprotected{}})[0]
	results := []CDFResult{un}
	for nfm := 1; nfm <= 5; nfm++ {
		results = append(results, msecdfAll(t, p, []Scheme{NewShuffled(nfm)})[0])
	}
	q := 0.9
	prev := math.Inf(1)
	for i, r := range results {
		mse := r.MSEAtYield(q)
		if mse > prev*1.0000001 {
			t.Errorf("arm %d (%s): MSE at yield %.2f = %g not decreasing (prev %g)",
				i, r.Scheme, q, mse, prev)
		}
		prev = mse
	}
}

func TestMSECDF30xReductionClaim(t *testing.T) {
	// §4: "a minimum 30x reduction in MSE that must be tolerated to
	// achieve a given target yield, even for the nFM=1 case".
	p := DefaultCDFParams()
	p.Trun = 3e4
	un := msecdfAll(t, p, []Scheme{Unprotected{}})[0]
	s1 := msecdfAll(t, p, []Scheme{NewShuffled(1)})[0]
	for _, q := range []float64{0.8, 0.9, 0.99} {
		red := ReductionAtYield(s1, un, q)
		if red < 30 {
			t.Errorf("yield %.2f: reduction %.1fx < 30x", q, red)
		}
	}
}

func TestYieldAtMSETargetNFM1(t *testing.T) {
	// §4: with target MSE < 1e6, nFM=1 achieves near-perfect yield. A
	// single fault under nFM=1 costs at most (2^15)^2/4096 = 2.6e5, so
	// only improbable many-fault samples (chiefly rare same-row pairs)
	// can violate the target. The converged tail mass is ~2.7e-5, i.e.
	// ~5 tail hits per 1e5 samples — discrete enough that the estimate
	// needs a 10x budget (with the per-count cap lifted accordingly) to
	// sit stably below the 1e-4 bound. The engine makes this cheap.
	p := DefaultCDFParams()
	p.Trun = 2e6
	p.MaxPerCount = 200000
	s1 := msecdfAll(t, p, []Scheme{NewShuffled(1)})[0]
	if y := s1.YieldAtMSE(1e6); y < 0.9999 {
		t.Errorf("nFM=1 yield at MSE<1e6 = %.6f, want ~1", y)
	}
	un := msecdfAll(t, p, []Scheme{Unprotected{}})[0]
	yU := un.YieldAtMSE(1e6)
	yS := s1.YieldAtMSE(1e6)
	if yS <= yU {
		t.Errorf("shuffling did not improve yield: %.4f vs %.4f", yS, yU)
	}
}

func TestPECCBetweenUnprotectedAndNFM2(t *testing.T) {
	// Fig. 5: P-ECC clearly beats no protection; nFM=2..5 beat P-ECC.
	p := DefaultCDFParams()
	p.Trun = 3e4
	un := msecdfAll(t, p, []Scheme{Unprotected{}})[0]
	pecc := msecdfAll(t, p, []Scheme{PriorityECC{}})[0]
	s2 := msecdfAll(t, p, []Scheme{NewShuffled(2)})[0]
	q := 0.9
	if !(pecc.MSEAtYield(q) < un.MSEAtYield(q)) {
		t.Error("P-ECC does not beat no-correction")
	}
	if !(s2.MSEAtYield(q) <= pecc.MSEAtYield(q)) {
		t.Error("nFM=2 does not beat P-ECC")
	}
}

func TestCDFResultBasics(t *testing.T) {
	p := DefaultCDFParams()
	p.Trun = 1e4
	r := msecdfAll(t, p, []Scheme{Unprotected{}})[0]
	if r.Samples == 0 {
		t.Fatal("no samples drawn")
	}
	if r.PZeroFailures <= 0 || r.PZeroFailures >= 1 {
		t.Errorf("Pr(N=0) = %g", r.PZeroFailures)
	}
	// Total CDF weight approximates Pr(N>=1).
	if w := r.CDF.TotalWeight(); math.Abs(w-(1-r.PZeroFailures)) > 0.01 {
		t.Errorf("CDF mass %g vs 1-P0 %g", w, 1-r.PZeroFailures)
	}
	// Yield at an absurd target is ~1; at 0 it is the fault-free mass.
	if y := r.YieldAtMSE(1e300); y < 0.999 {
		t.Errorf("yield at huge target %g", y)
	}
	if y := r.YieldAtMSE(0); math.Abs(y-r.PZeroFailures) > 1e-6 {
		t.Errorf("yield at 0 = %g, want P0 %g", y, r.PZeroFailures)
	}
}

func TestMSEAtYieldBelowP0IsZero(t *testing.T) {
	p := DefaultCDFParams()
	p.Trun = 1e4
	r := msecdfAll(t, p, []Scheme{NewShuffled(5)})[0]
	if got := r.MSEAtYield(r.PZeroFailures / 2); got != 0 {
		t.Errorf("MSE at yield below P0 = %g, want 0", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := DefaultCDFParams()
	p.Trun = 5e3
	a := msecdfAll(t, p, []Scheme{NewShuffled(3)})[0]
	b := msecdfAll(t, p, []Scheme{NewShuffled(3)})[0]
	if a.Samples != b.Samples {
		t.Fatal("sample counts differ")
	}
	if a.MSEAtYield(0.9) != b.MSEAtYield(0.9) {
		t.Error("results not deterministic")
	}
}

func TestCommonRandomNumbersAcrossArms(t *testing.T) {
	// MSECDFAllEnv evaluates every scheme on the same fault maps (common
	// random numbers), so running a scheme alongside others must give
	// exactly the result of running it alone at the same params.
	p := DefaultCDFParams()
	p.Trun = 5e3
	alone := msecdfAll(t, p, []Scheme{NewShuffled(2)})[0]
	together := msecdfAll(t, p, []Scheme{Unprotected{}, NewShuffled(2), FullECC{}})[1]
	if alone.Samples != together.Samples {
		t.Fatal("sample counts differ")
	}
	ax, ap := alone.CDF.Points()
	bx, bp := together.CDF.Points()
	if len(ax) != len(bx) {
		t.Fatalf("CDF sizes differ: %d vs %d", len(ax), len(bx))
	}
	for i := range ax {
		if ax[i] != bx[i] || ap[i] != bp[i] {
			t.Fatalf("CDF point %d differs: (%g,%g) vs (%g,%g)", i, ax[i], ap[i], bx[i], bp[i])
		}
	}
}
