package exp

import (
	"bytes"
	"testing"

	"faultmem/internal/mc"
)

func TestAblationMultiFaultInvariants(t *testing.T) {
	rows, err := AblationMultiFaultEnv(mc.Env{}, MultiFaultParams{Seed: 3, Trials: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 { // 5 nFM x 3 fault counts
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// The exhaustive search can never lose to the paper rule.
		if r.PaperPenalty < 1-1e-9 {
			t.Errorf("nFM=%d k=%d: penalty %.3f < 1 (BestX lost?)",
				r.NFM, r.FaultsPerRow, r.PaperPenalty)
		}
		if r.MeanMSEBest <= 0 || r.MeanMSEPaper <= 0 {
			t.Errorf("nFM=%d k=%d: non-positive MSE", r.NFM, r.FaultsPerRow)
		}
	}
	// At nFM=1 the two policies coincide for 32-bit words only when the
	// MSB fault dominates; but at nFM=5 (single-bit segments) the search
	// must strictly beat the paper rule on average for k>=2.
	for _, r := range rows {
		if r.NFM == 5 && r.FaultsPerRow >= 2 && r.PaperPenalty <= 1 {
			t.Errorf("nFM=5 k=%d: expected a strict penalty, got %.3f",
				r.FaultsPerRow, r.PaperPenalty)
		}
	}
	var buf bytes.Buffer
	if err := AblationMultiFaultTable(rows).Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAblationLUTTableRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationLUTTable(4096).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

func TestAblationTransientBoundary(t *testing.T) {
	rates := []float64{0, 1e-4}
	rows, err := AblationTransientEnv(mc.Env{}, TransientParams{Seed: 7, Rows: 512, Pcell: 2e-3, Rates: rates, Reads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*len(rates) {
		t.Fatalf("%d rows", len(rows))
	}
	get := func(p Protection, rate float64) float64 {
		for _, r := range rows {
			if r.Scheme == p && r.TransientRate == rate {
				return r.MeanMSE
			}
		}
		t.Fatalf("missing row %v %g", p, rate)
		return 0
	}
	// With persistent faults only: shuffling crushes the MSE, ECC zeroes
	// it (single faults per word at this Pcell, almost surely).
	if !(get(ProtShuffle5, 0) < get(ProtNone, 0)/1e6) {
		t.Errorf("nFM=5 persistent MSE %g not far below unprotected %g",
			get(ProtShuffle5, 0), get(ProtNone, 0))
	}
	// Transients leak through the shuffler at full magnitude: the
	// transient-on MSE must dwarf the mitigated persistent-only MSE.
	sn := get(ProtShuffle5, 1e-4)
	s0 := get(ProtShuffle5, 0)
	if sn < 1e6*(s0+1) {
		t.Errorf("shuffling appears to mitigate transients: %g vs persistent-only %g", sn, s0)
	}
}

func TestAblationTransientPureSoftErrors(t *testing.T) {
	// Without persistent faults, SECDED corrects essentially every soft
	// error (multi-flip words are ~1e-6 rare) while shuffling provides no
	// mitigation at all — the clean statement of the boundary.
	rows, err := AblationTransientEnv(mc.Env{}, TransientParams{Seed: 11, Rows: 512, Rates: []float64{1e-4}, Reads: 8})
	if err != nil {
		t.Fatal(err)
	}
	get := func(p Protection) float64 {
		for _, r := range rows {
			if r.Scheme == p {
				return r.MeanMSE
			}
		}
		t.Fatalf("missing row %v", p)
		return 0
	}
	un := get(ProtNone)
	sh := get(ProtShuffle5)
	ec := get(ProtECC)
	if un == 0 {
		t.Fatal("no transient errors observed at rate 1e-4")
	}
	if sh < un/100 {
		t.Errorf("shuffling mitigated pure transients: %g vs %g", sh, un)
	}
	if ec > un/1e3 {
		t.Errorf("ECC failed on pure transients: %g vs unprotected %g", ec, un)
	}
	var buf bytes.Buffer
	if err := AblationTransientTable(rows, 1e-4).Render(&buf); err != nil {
		t.Fatal(err)
	}
}
