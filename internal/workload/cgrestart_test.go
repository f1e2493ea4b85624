package workload

import (
	"math"
	"math/rand"
	"testing"

	"faultmem/internal/core"
	"faultmem/internal/fault"
	"faultmem/internal/mem"
	"faultmem/internal/memstore"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
)

// eccWithDoubleFault builds a SECDED memory with an uncorrectable
// double fault (two data-geometry flips) in each listed row.
func eccWithDoubleFault(t *testing.T, rows int, faultRows ...int) mem.Word32 {
	t.Helper()
	var fm fault.Map
	for _, r := range faultRows {
		fm = append(fm, fault.Fault{Row: r, Col: 3, Kind: fault.Flip})
		fm = append(fm, fault.Fault{Row: r, Col: 9, Kind: fault.Flip})
	}
	m, err := mem.NewECC(rows, fm, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func prepareCGRestart(t *testing.T, p Params) Instance {
	t.Helper()
	wl, err := CGRestart.Workload()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wl.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestCGRestartPrepareValidation pins the parameter contract.
func TestCGRestartPrepareValidation(t *testing.T) {
	wl, err := CGRestart.Workload()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{
		{Seed: 7, Dim: 1},
		{Seed: 7, Dim: 16, Iters: -1},
		{Seed: 7, Dim: 16, Checkpoint: -1},
	} {
		if _, err := wl.Prepare(p); err == nil {
			t.Errorf("Prepare(%+v) accepted invalid params", p)
		}
	}
	inst := prepareCGRestart(t, Params{Seed: 7, Dim: 16})
	if c := inst.Clean(); !(c < 1) {
		t.Errorf("fault-free reference residual %v, want < 1", c)
	}
	if inst.Metric() == "" {
		t.Error("no metric")
	}
}

// TestCGRestartNoFaultDetectorTrialPerfect runs the guarded solver
// against a fault-free SECDED memory: the checksums and DUE flags stay
// quiet, the iterates land on the same fixed-point grid as the
// reference, and the trial scores exactly 1.
func TestCGRestartNoFaultDetectorTrialPerfect(t *testing.T) {
	inst := prepareCGRestart(t, Params{Seed: 7, Dim: 16})
	ws := testWorkspace()
	inst.StoreOn(&ws)
	ws.Mem = eccWithDoubleFault(t, 512) // no fault rows: clean SECDED
	q, err := inst.RunTrial(&ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Errorf("no-fault guarded trial quality %v, want exactly 1", q)
	}
}

// TestCGRestartRollbackBeatsDegradation is the workload's reason to
// exist: on a die whose iterate window holds an uncorrectable double
// fault, the rollback-and-relocate policy must end closer to the
// fault-free answer than the same solver with its restart budget
// disabled (which trips once, switches the guards off, and absorbs the
// corruption every remaining iteration).
func TestCGRestartRollbackBeatsDegradation(t *testing.T) {
	const rows = 512
	// Row 10 sits inside the first 3-vector window (dim 16 -> rows 0-47),
	// so every store/load cycle of x trips until the window relocates.
	guarded := prepareCGRestart(t, Params{Seed: 7, Dim: 16})
	degraded := prepareCGRestart(t, Params{Seed: 7, Dim: 16, Restarts: -1})

	run := func(inst Instance) float64 {
		ws := testWorkspace()
		inst.StoreOn(&ws)
		ws.Mem = eccWithDoubleFault(t, rows, 10)
		q, err := inst.RunTrial(&ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		if q < 0 || q > 1 {
			t.Fatalf("quality %v outside [0, 1]", q)
		}
		return q
	}
	qG, qD := run(guarded), run(degraded)
	if qG <= qD {
		t.Errorf("rollback quality %v not better than degraded %v", qG, qD)
	}
}

// TestNextWindowWalk pins the relocation arithmetic: windows advance in
// 3*dim strides and wrap to the macro base instead of overflowing.
func TestNextWindowWalk(t *testing.T) {
	const d = 16
	if got := nextWindow(0, 96, d); got != 48 {
		t.Errorf("nextWindow(0, 96) = %d, want 48", got)
	}
	if got := nextWindow(48, 96, d); got != 0 {
		t.Errorf("nextWindow(48, 96) = %d, want wrap to 0", got)
	}
	off := 0
	for i := 0; i < 64; i++ {
		off = nextWindow(off, 512, d)
		if off < 0 || off+3*d > 512 {
			t.Fatalf("window %d overflows: off %d", i, off)
		}
	}
}

// TestCheckedTripPoliciesKeepNoFaultPerfect pins the acceptance
// criterion on the workspace dispatch: with an active recovery policy
// (checked round trips) and a fault-free detecting memory, every
// deterministic workload still scores exactly 1.0.
func TestCheckedTripPoliciesKeepNoFaultPerfect(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyRetry, PolicySafeRestore} {
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
			ws.Mem = eccWithDoubleFault(t, 256)
			rec := RecoveryPolicy{Kind: kind}.recovery()
			rec.ResetTrial()
			ws.Recovery = &rec
			q, err := inst.RunTrial(&ws, nil)
			if err != nil {
				t.Fatalf("%v/%v: trial: %v", kind, id, err)
			}
			if q != 1 {
				t.Errorf("%v/%v: no-fault checked trial quality %v, want exactly 1", kind, id, q)
			}
			if rec.Stats.Flagged != 0 {
				t.Errorf("%v/%v: fault-free memory flagged %d words", kind, id, rec.Stats.Flagged)
			}
		}
	}
}

// TestRetryPolicyRecoversTransientTrialExactly drives the full
// TrialRunner path: under soft errors on a clean SECDED die, the retry
// policy recovers flagged words and the per-arm counters surface
// through RecoveryStats.
func TestRetryPolicyRecoversTransientTrialExactly(t *testing.T) {
	inst := prepareCGRestart(t, Params{Seed: 7, Dim: 16})
	runner := NewTrialRunner(inst, Config{
		Name:          "cgrestart",
		Rows:          512,
		Pcell:         1e-6, // tiny persistent load; transient dominates
		Arms:          []Arm{eccArm{}},
		Policy:        RecoveryPolicy{Kind: PolicyRetry, Retries: 8},
		TransientRate: 2e-3,
	})
	var qs []float64
	for trial := 0; trial < 4; trial++ {
		var err error
		if qs, err = runner.RunTrial(7, trial, qs); err != nil {
			t.Fatal(err)
		}
	}
	st := runner.RecoveryStats()
	if len(st) != 1 {
		t.Fatalf("RecoveryStats length %d", len(st))
	}
	if st[0].Flagged == 0 {
		t.Fatal("soft errors at 2e-3 flagged nothing — the test exercises no recovery")
	}
	if st[0].Recovered == 0 {
		t.Error("retry policy recovered nothing")
	}
	if st[0].Retries < st[0].Recovered {
		t.Errorf("counters inconsistent: %+v", st[0])
	}
}

// eccArm adapts mem.NewECC to the Arm interface without importing the
// exp package (which would cycle).
type eccArm struct{}

func (eccArm) String() string { return "ECC" }
func (eccArm) Build(rows int, fm fault.Map) (mem.Word32, error) {
	return mem.NewECC(rows, fm, nil)
}

// runGuardedPerWord is the per-word reference of runGuarded: the same
// guarded iteration with one-row matrix-vector products, per-element
// quantization, and per-word Write and ReadChecked loops over x, r and
// p in turn (storeVec, loadVec, quantVec).
func (inst *cgrestartInstance) runGuardedPerWord(a, b []float64, m mem.Word32, codec memstore.Codec) ([]float64, int) {
	d := inst.dim
	x, r, p := make([]float64, d), make([]float64, d), make([]float64, d)
	ap, ck := make([]float64, d), make([]float64, d)
	copy(r, b)
	copy(p, b)
	words, off := 0, 0
	if m != nil {
		words = m.Words()
		if words < 3*d {
			m = nil
		}
	}
	guards := m != nil
	restarts := 0
	ckStep := 0
	for step := 0; step < inst.iters; step++ {
		rs := dot(r, r)
		if rs == 0 || !isFinite(rs) {
			break
		}
		for i := 0; i < d; i++ {
			sum := 0.0
			for j, v := range a[i*d : (i+1)*d] {
				sum += v * p[j]
			}
			ap[i] = sum
		}
		pap := dot(p, ap)
		if pap == 0 || !isFinite(pap) {
			if guards && restarts < inst.restarts {
				restarts++
				off = nextWindow(off, words, d)
				rollbackPerWord(x, r, p, ck, a, b, codec)
				ckStep = step
				continue
			}
			break
		}
		alpha := rs / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		beta := dot(r, r) / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		quantVec(codec, x)
		quantVec(codec, r)
		quantVec(codec, p)
		if m == nil {
			continue
		}
		sx := storeVec(m, codec, off, x)
		sr := storeVec(m, codec, off+d, r)
		sp := storeVec(m, codec, off+2*d, p)
		gx, dx := loadVec(m, codec, off, x)
		gr, dr := loadVec(m, codec, off+d, r)
		gp, dp := loadVec(m, codec, off+2*d, p)
		if guards && (dx || dr || dp || gx != sx || gr != sr || gp != sp) {
			if restarts < inst.restarts {
				restarts++
				off = nextWindow(off, words, d)
				rollbackPerWord(x, r, p, ck, a, b, codec)
				ckStep = step
				continue
			}
			guards = false
		}
		if guards && step-ckStep >= inst.checkpoint {
			copy(ck, x)
			ckStep = step
		}
	}
	return x, restarts
}

// rollbackPerWord is rollback's reference: b - A x row by row with a
// subtracting serial sum, each element snapped on its own.
func rollbackPerWord(x, r, p, ck, a, b []float64, codec memstore.Codec) {
	d := len(x)
	copy(x, ck)
	for i := 0; i < d; i++ {
		sum := b[i]
		for j, v := range a[i*d : (i+1)*d] {
			sum -= v * x[j]
		}
		r[i] = codec.Decode(codec.Encode(sum))
	}
	copy(p, r)
}

// quantVec snaps v onto the fixed-point grid in place — the value a
// fault-free store-and-load of v returns.
func quantVec(codec memstore.Codec, v []float64) {
	for i, f := range v {
		v[i] = codec.Decode(codec.Encode(f))
	}
}

// storeVec writes v into m at off and returns the exact element sum of
// the values written — the safe-memory checksum the read-back is
// checked against.
func storeVec(m mem.Word32, codec memstore.Codec, off int, v []float64) float64 {
	sum := 0.0
	for i, f := range v {
		m.Write(off+i, codec.Encode(f))
		sum += f
	}
	return sum
}

// loadVec reads v back from m at off, returning the element sum of the
// decoded values and whether any word raised a DUE flag.
func loadVec(m mem.Word32, codec memstore.Codec, off int, v []float64) (sum float64, due bool) {
	for i := range v {
		w, flagged := m.ReadChecked(off + i)
		due = due || flagged
		v[i] = codec.Decode(w)
		sum += v[i]
	}
	return sum, due
}

// TestGuardedBatchMatchesPerWord pins runGuarded's batch memory path,
// four-row products and slice codec to the per-word reference: on all
// eight arms (plus ECC with check-bit double faults), at four seeds,
// two dimensions (one not a multiple of the four-row tile) and three
// restart budgets, with persistent faults and soft errors, two
// identically built memories (one per path, soft errors from equally
// seeded sources) must give identical x bits, restart counts, decode
// Stats and array access counts. So must the memory-free reference run.
func TestGuardedBatchMatchesPerWord(t *testing.T) {
	const rows = 256
	arms := []func(fault.Map) (mem.Word32, error){
		func(fm fault.Map) (mem.Word32, error) { return mem.NewRaw(rows, fm) },
		func(fm fault.Map) (mem.Word32, error) { return mem.NewPECC(rows, fm, nil) },
		func(fm fault.Map) (mem.Word32, error) { return mem.NewECC(rows, fm, nil) },
		// ECC with double faults in the check bits of rows inside the
		// windows: those words flag while their data stays intact, so only
		// the DUE flag, not a checksum, can trip the guard.
		func(fm fault.Map) (mem.Word32, error) {
			var check fault.Map
			for _, r := range []int{5, 60, 100, 170} {
				check = append(check, fault.Fault{Row: r, Col: 1, Kind: fault.Flip}, fault.Fault{Row: r, Col: 2, Kind: fault.Flip})
			}
			return mem.NewECC(rows, fm, check)
		},
	}
	for nfm := 1; nfm <= 5; nfm++ {
		arms = append(arms, func(fm fault.Map) (mem.Word32, error) {
			return core.NewShuffled(core.Config{Width: 32, NFM: nfm}, rows, fm)
		})
	}
	type arrayed interface{ Array() *sram.Array }
	type statser interface{ Stats() mem.Stats }
	codec := memstore.DefaultCodec()
	var restartsSeen, duesSeen int
	for si, seed := range []int64{1, 2, 3, 7919} {
		for _, budget := range []int{0, 2, -1} { // default 8, 2, none
			dim := 24 - si%2 // 23 leaves three rows past the last tile
			inst := prepareCGRestart(t, Params{Seed: seed, Dim: dim, Restarts: budget}).(*cgrestartInstance)
			d := inst.dim
			a, b := inst.flat[:d*d], inst.flat[d*d:]

			want, _ := inst.runGuardedPerWord(a, b, nil, codec)
			got, _ := inst.runGuarded(&cgrestartScratch{}, a, b, nil, codec)
			if !sameBits(got, want) {
				t.Fatalf("seed %d: memory-free run differs from the per-word reference", seed)
			}

			fm := fault.GeneratePcell(stats.NewRand(seed), rows, mem.DataWidth, 2e-3, fault.Flip)
			for ai, build := range arms {
				ref, err := build(fm)
				if err != nil {
					t.Fatal(err)
				}
				bat, err := build(fm)
				if err != nil {
					t.Fatal(err)
				}
				ref.(arrayed).Array().SetTransient(1e-3, rand.NewSource(seed))
				bat.(arrayed).Array().SetTransient(1e-3, rand.NewSource(seed))

				want, wantN := inst.runGuardedPerWord(a, b, ref, codec)
				got, gotN := inst.runGuarded(&cgrestartScratch{}, a, b, bat, codec)
				if !sameBits(got, want) {
					t.Errorf("seed %d budget %d arm %d: x differs from the per-word reference", seed, budget, ai)
				}
				if gotN != wantN {
					t.Errorf("seed %d budget %d arm %d: %d restarts, reference %d", seed, budget, ai, gotN, wantN)
				}
				restartsSeen += gotN
				if sr, ok := ref.(statser); ok {
					if g, w := bat.(statser).Stats(), sr.Stats(); g != w {
						t.Errorf("seed %d budget %d arm %d: Stats %+v, reference %+v", seed, budget, ai, g, w)
					} else {
						duesSeen += int(w.Uncorrectable)
					}
				}
				gr, gw := bat.(arrayed).Array().AccessCounts()
				wr, ww := ref.(arrayed).Array().AccessCounts()
				if gr != wr || gw != ww {
					t.Errorf("seed %d budget %d arm %d: access counts (%d, %d), reference (%d, %d)", seed, budget, ai, gr, gw, wr, ww)
				}
			}
		}
	}
	t.Logf("%d restarts, %d DUEs", restartsSeen, duesSeen)
	if restartsSeen == 0 || duesSeen == 0 {
		t.Fatalf("the runs saw %d restarts and %d DUEs: the test exercises neither guard", restartsSeen, duesSeen)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
