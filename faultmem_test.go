package faultmem

import (
	"testing"
)

func TestFacadeShuffledMemoryEndToEnd(t *testing.T) {
	faults := GenerateFaultCount(1, Rows16KB, 64)
	m, err := NewShuffledMemory(5, Rows16KB, faults)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 256; a++ {
		v := uint32(a) * 2654435761
		m.Write(a, v)
		got := m.Read(a)
		diff := uint64(v ^ got)
		// nFM=5 bounds single-fault rows to an LSB error; multi-fault
		// rows are rare at 64 faults over 4096 rows but still bounded by
		// the raw fault count per row.
		if diff > 3 {
			t.Fatalf("addr %d: error pattern %#x too large for nFM=5", a, diff)
		}
	}
}

func TestFacadeAllConstructors(t *testing.T) {
	faults := GenerateFaultCount(2, 64, 8)
	mems := []Memory{NewPerfectMemory(64)}
	if m, err := NewRawMemory(64, faults); err == nil {
		mems = append(mems, m)
	} else {
		t.Fatal(err)
	}
	if m, err := NewECCMemory(64, faults); err == nil {
		mems = append(mems, m)
	} else {
		t.Fatal(err)
	}
	if m, err := NewPECCMemory(64, faults); err == nil {
		mems = append(mems, m)
	} else {
		t.Fatal(err)
	}
	if m, err := NewShuffledMemory(3, 64, faults); err == nil {
		mems = append(mems, m)
	} else {
		t.Fatal(err)
	}
	for _, m := range mems {
		if m.Words() != 64 {
			t.Errorf("%T: words %d", m, m.Words())
		}
		m.Write(5, 42)
		_ = m.Read(5)
	}
}

func TestFacadeECCCorrects(t *testing.T) {
	faults := FaultMap{{Row: 0, Col: 31, Kind: Flip}}
	m, err := NewECCMemory(4, faults)
	if err != nil {
		t.Fatal(err)
	}
	m.Write(0, 0xDEADBEEF)
	if got := m.Read(0); got != 0xDEADBEEF {
		t.Errorf("ECC did not correct: %#x", got)
	}
	if m.Stats().Corrected != 1 {
		t.Error("correction not counted")
	}
}

func TestFacadeBISTFlow(t *testing.T) {
	arr := NewBitArray(128, 32)
	faults := GenerateFaultCount(3, 128, 16)
	if err := arr.SetFaults(faults); err != nil {
		t.Fatal(err)
	}
	m, rep, err := RunBISTAndProgram(MarchCMinus(), arr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Detected) != len(faults) {
		t.Fatalf("BIST found %d faults, injected %d", len(rep.Detected), len(faults))
	}
	// Rows with a single fault obey the nFM=5 bound exactly.
	byRow := faults.ByRow()
	for row, cols := range byRow {
		if len(cols) != 1 {
			continue
		}
		m.Write(row, 0xFFFFFFFF)
		got := m.Read(row)
		if diff := uint64(0xFFFFFFFF ^ got); diff > 1 {
			t.Fatalf("row %d: diff %#x exceeds nFM=5 bound", row, diff)
		}
	}
}

func TestFacadeCellModelAndDie(t *testing.T) {
	model := Default28nmCellModel()
	if p := model.Pcell(0.7); p < 1e-4 || p > 1e-2 {
		t.Errorf("Pcell(0.7) = %g outside the calibrated regime", p)
	}
	die := SampleDie(4, 256, model)
	hi := die.AtVDD(0.75, Flip)
	lo := die.AtVDD(0.65, Flip)
	if len(lo) < len(hi) {
		t.Error("fault inclusion violated")
	}
}

func TestFacadeOverheadTable(t *testing.T) {
	rows := OverheadTable(Rows16KB)
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	sh := ShuffleReadOverhead(Rows16KB, 1)
	ec := ECCReadOverhead(Rows16KB)
	if sh.ReadEnergy >= ec.ReadEnergy || sh.ReadDelay >= ec.ReadDelay || sh.Area >= ec.Area {
		t.Error("nFM=1 does not beat ECC in the overhead model")
	}
}

func TestFacadeMSE(t *testing.T) {
	faults := FaultMap{{Row: 0, Col: 31, Kind: Flip}}
	none, err := MSE(faults, 4096, "none")
	if err != nil {
		t.Fatal(err)
	}
	nfm5, err := MSE(faults, 4096, "nfm5")
	if err != nil {
		t.Fatal(err)
	}
	if none <= nfm5 {
		t.Errorf("MSE ordering violated: none %g vs nfm5 %g", none, nfm5)
	}
	eccv, err := MSE(faults, 4096, "ecc")
	if err != nil || eccv != 0 {
		t.Errorf("single-fault ECC MSE = %g, %v", eccv, err)
	}
	if _, err := MSE(faults, 4096, "bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestFacadePartialECCSplits(t *testing.T) {
	// A fault at bit 20 is inside the protected region for top-16/top-24
	// splits and outside it for top-8.
	faults := FaultMap{{Row: 0, Col: 20, Kind: Flip}}
	for _, c := range []struct {
		protected int
		corrected bool
	}{
		{8, false},
		{16, true},
		{24, true},
	} {
		m, err := NewPartialECCMemory(4, c.protected, faults)
		if err != nil {
			t.Fatal(err)
		}
		if m.ProtectedBits() != c.protected {
			t.Errorf("ProtectedBits = %d", m.ProtectedBits())
		}
		m.Write(0, 0)
		got := m.Read(0)
		if c.corrected && got != 0 {
			t.Errorf("top-%d: fault at 20 not corrected: %#x", c.protected, got)
		}
		if !c.corrected && got != 1<<20 {
			t.Errorf("top-%d: expected leak-through, read %#x", c.protected, got)
		}
	}
	if _, err := NewPartialECCMemory(4, 0, faults); err == nil {
		t.Error("0 protected bits accepted")
	}
	if _, err := NewPartialECCMemory(4, 32, faults); err == nil {
		t.Error("32 protected bits accepted (that is full ECC)")
	}
}

func TestFacadeRepairedMemory(t *testing.T) {
	faults := GenerateFaultCount(6, 64, 10)
	m, ok, err := NewRepairedMemory(64, faults, RepairBudget{SpareRows: 8, SpareCols: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("repairable die rejected")
	}
	m.Write(5, 0xFEEDFACE)
	if m.Read(5) != 0xFEEDFACE {
		t.Error("repaired memory corrupts data")
	}
	if MinSpareLines(faults) > 10 {
		t.Error("König bound above fault count")
	}
	// Over-budget die: rejected cleanly.
	dense := GenerateFaultCount(7, 64, 60)
	if _, ok, err := NewRepairedMemory(64, dense, RepairBudget{SpareRows: 2, SpareCols: 2}); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("60-fault die repaired with 2+2 spares")
	}
}

func TestFacadeFaultGenerators(t *testing.T) {
	fm := GenerateFaultsPcell(5, Rows16KB, 1e-3)
	// Expect ~131 faults; allow wide slack.
	if len(fm) < 60 || len(fm) > 220 {
		t.Errorf("Pcell generator drew %d faults, expected ~131", len(fm))
	}
	if err := fm.Validate(Rows16KB, 32); err != nil {
		t.Fatal(err)
	}
}
