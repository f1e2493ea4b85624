package exp

import (
	"bytes"
	"testing"

	"faultmem/internal/mc"
	"faultmem/internal/yield"
)

func TestParetoFrontier(t *testing.T) {
	p := DefaultParetoParams()
	p.CDF.Trun = 1e4 // test-scale
	rows, err := ParetoEnv(mc.Env{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+5+3+1 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]ParetoRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}

	// Quality monotone in nFM.
	prev := byName["nFM=1-Bit"].MSEAtYield
	for _, n := range []string{"nFM=2-Bit", "nFM=3-Bit", "nFM=4-Bit", "nFM=5-Bit"} {
		cur := byName[n].MSEAtYield
		if cur > prev*1.0000001 {
			t.Errorf("%s MSE %g above previous %g", n, cur, prev)
		}
		prev = cur
	}
	// Quality monotone in the P-ECC protected fraction.
	if !(byName["P-ECC top-24"].MSEAtYield <= byName["H(22,16) P-ECC"].MSEAtYield &&
		byName["H(22,16) P-ECC"].MSEAtYield <= byName["P-ECC top-8"].MSEAtYield) {
		t.Error("P-ECC quality not monotone in protected fraction")
	}
	// Dominance: nFM=2 strictly beats the top-8 and top-16 splits in
	// quality and all three cost metrics; against top-24 (whose single-
	// fault bound coincides with nFM=2's 2^7) it ties on quality within
	// MC noise while costing a third as much.
	s2 := byName["nFM=2-Bit"]
	for _, n := range []string{"P-ECC top-8", "H(22,16) P-ECC"} {
		pe := byName[n]
		if !(s2.MSEAtYield <= pe.MSEAtYield && s2.RelPower < pe.RelPower &&
			s2.RelDelay < pe.RelDelay && s2.RelArea < pe.RelArea) {
			t.Errorf("nFM=2 does not dominate %s: %+v vs %+v", n, s2, pe)
		}
	}
	top24 := byName["P-ECC top-24"]
	if s2.MSEAtYield > 2*top24.MSEAtYield {
		t.Errorf("nFM=2 quality %g far above top-24 %g", s2.MSEAtYield, top24.MSEAtYield)
	}
	if !(s2.RelPower < top24.RelPower && s2.RelDelay < top24.RelDelay && s2.RelArea < top24.RelArea) {
		t.Error("nFM=2 not cheaper than P-ECC top-24")
	}
	// ECC: perfect quality (MSE 0 at this Pcell regime), unit cost.
	eccRow := byName["H(39,32) ECC"]
	if eccRow.RelPower != 1 || eccRow.RelArea != 1 || eccRow.RelDelay != 1 {
		t.Errorf("ECC not normalized: %+v", eccRow)
	}
	// No-correction: zero cost, worst quality.
	nc := byName["No Correction"]
	if nc.RelPower != 0 || nc.MSEAtYield <= byName["nFM=1-Bit"].MSEAtYield {
		t.Errorf("no-correction row malformed: %+v", nc)
	}

	var buf bytes.Buffer
	if err := ParetoTable(rows, p).Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestPartialECCSplitSemantics(t *testing.T) {
	// Residual semantics across splits: a single fault at bit 20 is
	// corrected by top-16 and top-24 protection but leaks through top-8
	// protection (bit 20 < 32-8 = 24).
	cols := []int{20}
	if got := (yield.PriorityECC{Protected: 8}).Residual(cols); len(got) != 1 || got[0] != 20 {
		t.Errorf("top-8: %v", got)
	}
	if got := (yield.PriorityECC{Protected: 16}).Residual(cols); len(got) != 0 {
		t.Errorf("top-16: %v", got)
	}
	if got := (yield.PriorityECC{Protected: 24}).Residual(cols); len(got) != 0 {
		t.Errorf("top-24: %v", got)
	}
	// Names.
	if (yield.PriorityECC{}).Name() != "H(22,16) P-ECC" {
		t.Error("default split name wrong")
	}
	if (yield.PriorityECC{Protected: 8}).Name() != "P-ECC top-8" {
		t.Error("top-8 name wrong")
	}
}
