package workload

import (
	"testing"

	"faultmem/internal/fault"
	"faultmem/internal/mat"
	"faultmem/internal/mem"
	"faultmem/internal/memstore"
)

// testWorkspace returns a trial workspace wired the way TrialRunner
// wires it.
func testWorkspace() Workspace {
	return Workspace{Codec: memstore.DefaultCodec()}
}

// perfectMemory builds an unprotected memory with no faults.
func perfectMemory(t testing.TB, rows int) mem.Word32 {
	t.Helper()
	m, err := mem.NewRaw(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mixedFaultMap builds a deterministic fault map cycling through all
// three failure modes, one fault per row.
func mixedFaultMap(rows int) fault.Map {
	kinds := []fault.Kind{fault.Flip, fault.StuckAt0, fault.StuckAt1}
	fm := make(fault.Map, 0, rows)
	for i := 0; i < rows; i++ {
		fm = append(fm, fault.Fault{Row: i, Col: (i * 11) % 32, Kind: kinds[i%3]})
	}
	return fm
}

// TestRegistryRoundTrip pins the ID vocabulary: every registered
// workload parses back from its canonical name, carries a metric and a
// display name, and the first three IDs keep the historical fig7 App
// values.
func TestRegistryRoundTrip(t *testing.T) {
	if got := All(); len(got) != numWorkloads || len(Names()) != numWorkloads {
		t.Fatalf("All()/Names() disagree with registry size %d", numWorkloads)
	}
	for _, id := range All() {
		parsed, err := Parse(id.String())
		if err != nil || parsed != id {
			t.Errorf("Parse(%q) = %v, %v; want %v", id.String(), parsed, err, id)
		}
		if id.Metric() == "" || id.Metric() == "?" {
			t.Errorf("%v: no metric", id)
		}
		if id.Display() == "" {
			t.Errorf("%v: no display name", id)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("Parse accepted unknown name")
	}
	if ElasticNet != 0 || PCA != 1 || KNN != 2 {
		t.Error("ML workload IDs drifted from the fig7 App param values")
	}
	if ID(-1).Valid() || ID(numWorkloads).Valid() {
		t.Error("Valid accepted an out-of-range id")
	}
}

// TestNoFaultTrialPerfectQuality pins the quantization contract of the
// new workloads: their problem data is snapped to the fixed-point grid
// at Prepare, so a trial against a fault-free memory reproduces the
// clean computation exactly and scores quality 1.0 — not 1-epsilon.
func TestNoFaultTrialPerfectQuality(t *testing.T) {
	for _, id := range []ID{RSort, CGSolve, CGRestart} {
		wl, err := id.Workload()
		if err != nil {
			t.Fatal(err)
		}
		inst, err := wl.Prepare(Params{Seed: 7, Keys: 512, Dim: 24})
		if err != nil {
			t.Fatalf("%v: prepare: %v", id, err)
		}
		ws := testWorkspace()
		inst.StoreOn(&ws)
		ws.Mem = perfectMemory(t, 256)
		q, err := inst.RunTrial(&ws, nil)
		if err != nil {
			t.Fatalf("%v: trial: %v", id, err)
		}
		if q != 1 {
			t.Errorf("%v: no-fault trial quality %v, want exactly 1", id, q)
		}
	}

	// The ML workloads retrain on the quantized round-trip of their
	// training set, so their no-fault quality is near-perfect but not
	// bit-exact; pin the normalization stays sane.
	for _, id := range []ID{ElasticNet, KNN} {
		wl, err := id.Workload()
		if err != nil {
			t.Fatal(err)
		}
		inst, err := wl.Prepare(Params{Seed: 7})
		if err != nil {
			t.Fatalf("%v: prepare: %v", id, err)
		}
		ws := testWorkspace()
		inst.StoreOn(&ws)
		ws.Mem = perfectMemory(t, 256)
		q, err := inst.RunTrial(&ws, nil)
		if err != nil {
			t.Fatalf("%v: trial: %v", id, err)
		}
		if q < 0.95 || q > 1 {
			t.Errorf("%v: no-fault trial quality %v, want within [0.95, 1]", id, q)
		}
	}
}

// TestEvaluatePropagatesFitError pins the swallowed-error fix carried
// over from the fig7 engine: a model-fit failure (always a programming
// error, never fault-induced) surfaces as an error instead of silently
// recording quality 0.
func TestEvaluatePropagatesFitError(t *testing.T) {
	for _, id := range []ID{ElasticNet, PCA, KNN} {
		wl, err := id.Workload()
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := wl.Prepare(Params{Seed: 7})
		if err != nil {
			t.Fatalf("%v: prepare: %v", id, err)
		}
		mi := prepared.(*mlInstance)
		// One training sample breaks every model's fit invariants
		// (n < 2 for elastic net / PCA, n < K for KNN).
		_, d := mi.train.X.Dims()
		bad := mat.NewDense(1, d)
		if _, err := mi.evaluate(nil, bad, []float64{1}); err == nil {
			t.Errorf("%v: evaluate on invalid training set returned no error", id)
		}
	}
}

// TestCGSolveFaultsDegradeQuality sanity-checks the residual-to-quality
// map end to end: a heavily faulted unprotected memory must cost the
// solver quality, and the result must stay inside [0, 1].
func TestCGSolveFaultsDegradeQuality(t *testing.T) {
	wl, err := CGSolve.Workload()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wl.Prepare(Params{Seed: 7, Dim: 24})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 96
	m, err := mem.NewRaw(rows, mixedFaultMap(rows))
	if err != nil {
		t.Fatal(err)
	}
	ws := testWorkspace()
	inst.StoreOn(&ws)
	ws.Mem = m
	q, err := inst.RunTrial(&ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0 || q >= 1 {
		t.Errorf("fault-every-row CG quality %v, want inside [0, 1)", q)
	}
}

// TestRSortWarmTrialAllocs pins the workspace contract for the
// non-ML workloads: once the scratch is warm, a trial allocates
// nothing beyond what the memory itself does.
func TestRSortWarmTrialAllocs(t *testing.T) {
	wl, err := RSort.Workload()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wl.Prepare(Params{Seed: 7, Keys: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 256
	m, err := mem.NewRaw(rows, mixedFaultMap(rows))
	if err != nil {
		t.Fatal(err)
	}
	ws := testWorkspace()
	inst.StoreOn(&ws)
	ws.Mem = m
	if _, err := inst.RunTrial(&ws, nil); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := inst.RunTrial(&ws, nil); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("warm rsort trial allocates %v times, want 0", allocs)
	}
}
