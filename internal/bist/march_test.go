package bist

import (
	"testing"

	"faultmem/internal/core"
	"faultmem/internal/fault"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
)

func TestComplexities(t *testing.T) {
	if ZeroOne().Complexity() != 4 {
		t.Errorf("Zero-One complexity %d, want 4", ZeroOne().Complexity())
	}
	if MATSPlus().Complexity() != 5 {
		t.Errorf("MATS+ complexity %d, want 5", MATSPlus().Complexity())
	}
	if MarchCMinus().Complexity() != 10 {
		t.Errorf("March C- complexity %d, want 10", MarchCMinus().Complexity())
	}
	if MarchB().Complexity() != 17 {
		t.Errorf("March B complexity %d, want 17", MarchB().Complexity())
	}
}

func TestOpStrings(t *testing.T) {
	if W0.String() != "w0" || W1.String() != "w1" || R0.String() != "r0" || R1.String() != "r1" {
		t.Error("op names wrong")
	}
}

func TestCleanArrayNoDetections(t *testing.T) {
	for _, alg := range []Algorithm{ZeroOne(), MATSPlus(), MarchCMinus(), MarchB()} {
		arr := sram.NewArray(64, 32)
		rep := Run(alg, arr)
		if len(rep.Detected) != 0 {
			t.Errorf("%s: %d false positives on a clean array", alg.Name, len(rep.Detected))
		}
		if rep.Operations != alg.Complexity()*64 {
			t.Errorf("%s: %d ops, want %d", alg.Name, rep.Operations, alg.Complexity()*64)
		}
	}
}

func sameCells(a, b fault.Map) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[[2]int]fault.Kind, len(a))
	for _, f := range a {
		set[[2]int{f.Row, f.Col}] = f.Kind
	}
	for _, f := range b {
		k, ok := set[[2]int{f.Row, f.Col}]
		if !ok || k != f.Kind {
			return false
		}
	}
	return true
}

func TestAllAlgorithmsDetectAndClassifyAllFaultKinds(t *testing.T) {
	// Every algorithm reads both backgrounds at every cell, so all three
	// modeled fault kinds must be detected at the exact location AND
	// classified correctly.
	rng := stats.NewRand(21)
	for _, alg := range []Algorithm{ZeroOne(), MATSPlus(), MarchCMinus(), MarchB()} {
		for trial := 0; trial < 20; trial++ {
			injected := fault.RandomKinds(rng,
				fault.GenerateCount(rng, 64, 32, 12, fault.Flip),
				[]fault.Kind{fault.Flip, fault.StuckAt0, fault.StuckAt1})
			arr := sram.NewArray(64, 32)
			if err := arr.SetFaults(injected); err != nil {
				t.Fatal(err)
			}
			rep := Run(alg, arr)
			if !sameCells(rep.Detected, injected) {
				t.Fatalf("%s trial %d: detected %v != injected %v",
					alg.Name, trial, rep.Detected, injected)
			}
		}
	}
}

func TestDetectSingleStuckAt(t *testing.T) {
	arr := sram.NewArray(8, 16)
	if err := arr.SetFaults(fault.Map{{Row: 3, Col: 7, Kind: fault.StuckAt1}}); err != nil {
		t.Fatal(err)
	}
	rep := Run(MarchCMinus(), arr)
	if len(rep.Detected) != 1 {
		t.Fatalf("detected %d faults, want 1", len(rep.Detected))
	}
	f := rep.Detected[0]
	if f.Row != 3 || f.Col != 7 || f.Kind != fault.StuckAt1 {
		t.Errorf("detected %+v", f)
	}
}

func TestProgramFMLUTEndToEnd(t *testing.T) {
	// Full POST flow: inject faults, BIST-scan, program the LUT, attach
	// the shuffling datapath, and verify the single-fault error bound.
	rng := stats.NewRand(8)
	cfg := core.Config{Width: 32, NFM: 5}
	// One fault per distinct row so the single-fault guarantee applies.
	var injected fault.Map
	rows := 32
	for _, r := range stats.SampleDistinct(rng, rows, 10) {
		injected = append(injected, fault.Fault{Row: r, Col: rng.Intn(32), Kind: fault.Flip})
	}
	arr := sram.NewArray(rows, 32)
	if err := arr.SetFaults(injected); err != nil {
		t.Fatal(err)
	}
	lut, rep, err := ProgramFMLUT(MarchCMinus(), arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Detected) != len(injected) {
		t.Fatalf("BIST found %d faults, injected %d", len(rep.Detected), len(injected))
	}
	shuf, err := core.NewShuffledWithLUT(arr, lut)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < rows; a++ {
		v := uint32(rng.Uint64())
		shuf.Write(a, v)
		got := shuf.Read(a)
		diff := uint64(v ^ got)
		if diff > 1 { // nFM=5: error magnitude at most 2^0
			t.Fatalf("row %d: error pattern %#x exceeds nFM=5 bound", a, diff)
		}
	}
}

func TestProgramFMLUTWidthMismatch(t *testing.T) {
	arr := sram.NewArray(4, 16)
	if _, _, err := ProgramFMLUT(MarchCMinus(), arr, core.Config{Width: 32, NFM: 5}); err == nil {
		t.Error("width mismatch accepted")
	}
}

func TestRunLeavesDeterministicState(t *testing.T) {
	// After any March test the array holds the last written background
	// (accounting for faults); the test must be repeatable.
	arr := sram.NewArray(16, 32)
	if err := arr.SetFaults(fault.Map{{Row: 2, Col: 9, Kind: fault.Flip}}); err != nil {
		t.Fatal(err)
	}
	rep1 := Run(MarchB(), arr)
	rep2 := Run(MarchB(), arr)
	if !sameCells(rep1.Detected, rep2.Detected) {
		t.Error("BIST not repeatable")
	}
}

func BenchmarkMarchCMinus16KB(b *testing.B) {
	rng := stats.NewRand(1)
	arr := sram.NewArray(sram.Rows16KB(32), 32)
	if err := arr.SetFaults(fault.GenerateCount(rng, arr.Rows(), 32, 131, fault.Flip)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Run(MarchCMinus(), arr)
	}
}
