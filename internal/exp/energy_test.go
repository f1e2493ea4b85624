package exp

import (
	"bytes"
	"context"
	"math"
	"testing"

	"faultmem/internal/mc"
	"faultmem/internal/redund"
)

func TestEnergyStudyOrdering(t *testing.T) {
	p := DefaultEnergyParams()
	p.Dies = 120 // keep the test fast; orderings are robust
	rows, err := EnergyStudyEnv(mc.Env{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]EnergyRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	none := byName["No Correction"]
	nfm5 := byName["nFM=5-Bit"]
	eccv := byName["H(39,32) ECC"]

	// The central claim: shuffling reaches a lower viable VDD than no
	// protection, and at least matches ECC.
	if math.IsNaN(nfm5.MinVDD) {
		t.Fatal("nFM=5 found no viable VDD")
	}
	if !math.IsNaN(none.MinVDD) && nfm5.MinVDD >= none.MinVDD {
		t.Errorf("nFM=5 min VDD %.2f not below unprotected %.2f", nfm5.MinVDD, none.MinVDD)
	}
	if !math.IsNaN(eccv.MinVDD) && nfm5.MinVDD > eccv.MinVDD {
		t.Errorf("nFM=5 min VDD %.2f above ECC %.2f", nfm5.MinVDD, eccv.MinVDD)
	}
	// And the energy at that point beats ECC (lower VDD and lower
	// overhead compound).
	if !(nfm5.RelativeToECC < 1) {
		t.Errorf("nFM=5 relative energy %.2f, want < 1", nfm5.RelativeToECC)
	}
	var buf bytes.Buffer
	if err := EnergyTable(rows, p).Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyStudyDeterministic(t *testing.T) {
	p := DefaultEnergyParams()
	p.Dies = 60
	a, err := EnergyStudyEnv(mc.Env{}, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EnergyStudyEnv(mc.Env{}, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].MinVDD != b[i].MinVDD && !(math.IsNaN(a[i].MinVDD) && math.IsNaN(b[i].MinVDD)) {
			t.Fatalf("arm %d not deterministic: %v vs %v", i, a[i].MinVDD, b[i].MinVDD)
		}
	}
}

func TestRedundancyStudyEconomics(t *testing.T) {
	p := DefaultRedundancyParams()
	p.Dies = 60
	p.VDDs = []float64{0.80, 0.72, 0.66}
	rows, err := RedundancyStudyCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Spares needed must grow as VDD drops; the small budget's repair
	// rate must collapse.
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanMinSpares < rows[i-1].MeanMinSpares {
			t.Errorf("min spares not growing: %.1f -> %.1f",
				rows[i-1].MeanMinSpares, rows[i].MeanMinSpares)
		}
	}
	smallBudget := rows[len(rows)-1].RepairRate[0] // 2+2 at the lowest VDD
	if smallBudget > 0.1 {
		t.Errorf("2+2 spares still repair %.2f of dies at %.2fV", smallBudget, rows[len(rows)-1].VDD)
	}
	bigBudgetHighV := rows[0].RepairRate[len(p.Budgets)-1]
	if bigBudgetHighV < 0.95 {
		t.Errorf("32+32 spares repair only %.2f at %.2fV", bigBudgetHighV, rows[0].VDD)
	}
	var buf bytes.Buffer
	if err := RedundancyTable(rows, p).Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRedundancyStudyMonotoneInBudget(t *testing.T) {
	p := DefaultRedundancyParams()
	p.Dies = 40
	p.VDDs = []float64{0.72}
	p.Budgets = []redund.Budget{
		{SpareRows: 1, SpareCols: 1},
		{SpareRows: 4, SpareCols: 4},
		{SpareRows: 16, SpareCols: 16},
	}
	rows, err := RedundancyStudyCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0].RepairRate
	if !(r[0] <= r[1] && r[1] <= r[2]) {
		t.Errorf("repair rate not monotone in budget: %v", r)
	}
}
