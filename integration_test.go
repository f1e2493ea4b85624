package faultmem_test

import (
	"context"
	"math"
	"testing"

	"faultmem"
	"faultmem/internal/exp"
	"faultmem/internal/mc"
)

// TestIntegrationFullPipeline exercises the complete system the way the
// paper's evaluation does: sample a die from the cell model at a scaled
// voltage, discover its faults with BIST, program the FM-LUT, store a
// training set through the resulting memory, train a model, and compare
// its quality against the unprotected path — all through the public API.
func TestIntegrationFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration pipeline is slow")
	}
	const seed = 99

	// 1. A die at a scaled operating point.
	model := faultmem.Default28nmCellModel()
	die := faultmem.SampleDie(seed, faultmem.Rows16KB, model)
	vdd := model.VDDForPcell(1e-3)
	faults := die.AtVDD(vdd, faultmem.Flip)
	if len(faults) < 50 {
		t.Fatalf("die has only %d faults at VDD=%.2f; expected ~131", len(faults), vdd)
	}

	// 2. BIST discovers exactly the injected faults and programs the LUT.
	arr := faultmem.NewBitArray(faultmem.Rows16KB, 32)
	if err := arr.SetFaults(faults); err != nil {
		t.Fatal(err)
	}
	shuffled, report, err := faultmem.RunBISTAndProgram(faultmem.MarchCMinus(), arr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Detected) != len(faults) {
		t.Fatalf("BIST detected %d of %d faults", len(report.Detected), len(faults))
	}

	// 3. Train on data that round-tripped the protected memory.
	ds := faultmem.WineDataset(seed)
	train, test := ds.Split(0.8, seed)
	clean := faultmem.NewElasticNet()
	if err := clean.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	ref := clean.Score(test.X, test.Y)
	if ref <= 0 {
		t.Fatalf("clean reference R² = %g", ref)
	}

	evaluate := func(m faultmem.Memory) float64 {
		x, y := faultmem.RoundTripDataset(m, train.X, train.Y)
		en := faultmem.NewElasticNet()
		if err := en.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		return en.Score(test.X, test.Y) / ref
	}

	qShuffled := evaluate(shuffled)
	raw, err := faultmem.NewRawMemory(faultmem.Rows16KB, faults)
	if err != nil {
		t.Fatal(err)
	}
	qRaw := evaluate(raw)

	// 4. The paper's Fig. 7a story on this single die: unprotected
	// quality collapses, nFM=2 shuffling stays close to fault-free.
	if qRaw > 0.5 {
		t.Errorf("unprotected quality %.3f; expected collapse", qRaw)
	}
	if qShuffled < 0.8 {
		t.Errorf("nFM=2 shuffled quality %.3f; expected near 1", qShuffled)
	}
	if qShuffled <= qRaw {
		t.Errorf("shuffling (%.3f) did not beat no protection (%.3f)", qShuffled, qRaw)
	}
}

// TestIntegrationRedundancyVsShuffling contrasts the two philosophies on
// the same dies: at a moderately scaled voltage the spare-line budget
// stops repairing dies that bit-shuffling still renders usable.
func TestIntegrationRedundancyVsShuffling(t *testing.T) {
	model := faultmem.Default28nmCellModel()
	budget := faultmem.RepairBudget{SpareRows: 8, SpareCols: 8}
	const dies = 10
	vdd := model.VDDForPcell(5e-4) // ~65 faults per die

	rejected, usable := 0, 0
	for d := int64(0); d < dies; d++ {
		die := faultmem.SampleDie(200+d, faultmem.Rows16KB, model)
		faults := die.AtVDD(vdd, faultmem.Flip)
		if _, ok, err := faultmem.NewRepairedMemory(faultmem.Rows16KB, faults, budget); err != nil {
			t.Fatal(err)
		} else if !ok {
			rejected++
		}
		// The quality criterion accepts the same die under shuffling.
		mse, err := faultmem.MSE(faults, faultmem.Rows16KB, "nfm5")
		if err != nil {
			t.Fatal(err)
		}
		if mse < 1e6 {
			usable++
		}
		if faultmem.MinSpareLines(faults) > len(faults) {
			t.Error("König bound exceeds fault count")
		}
	}
	if rejected == 0 {
		t.Errorf("redundancy repaired all %d dies at ~65 faults; budget should be exhausted", dies)
	}
	if usable != dies {
		t.Errorf("shuffling quality criterion accepted %d/%d dies; want all", usable, dies)
	}
}

// TestIntegrationExpDeterminism pins the experiment harness: the same
// seeds must regenerate identical exhibit rows across processes (the
// reproducibility contract of EXPERIMENTS.md).
func TestIntegrationExpDeterminism(t *testing.T) {
	ctx := context.Background()
	fig2 := exp.Fig2Params{VMin: 0.7, VMax: 0.8, Step: 0.05, ISDirections: 500, MemoryBytes: 16384, Seed: 4}
	a, errA := exp.Fig2Ctx(ctx, fig2)
	b, errB := exp.Fig2Ctx(ctx, fig2)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Fig2 row %d differs across runs", i)
		}
	}
	p := exp.DefaultFig5Params()
	p.CDF.Trun = 2e3
	x, errX := exp.Fig5Env(mc.Env{}, p)
	y, errY := exp.Fig5Env(mc.Env{}, p)
	if errX != nil || errY != nil {
		t.Fatal(errX, errY)
	}
	for i := range x.CDFs {
		if math.Abs(x.CDFs[i].MSEAtYield(0.9)-y.CDFs[i].MSEAtYield(0.9)) != 0 {
			t.Fatalf("Fig5 arm %d differs across runs", i)
		}
	}
}
