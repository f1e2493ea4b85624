package workload

import (
	"fmt"
	"math/rand"

	"faultmem/internal/mem"
	"faultmem/internal/memstore"
	"faultmem/internal/stats"
)

// Default cgrestart control geometry: checkpoint the solution every 8
// healthy iterations and allow 8 rollback-restarts before the guards
// give up and the solver degrades to absorbing corruption.
const (
	defaultCGCheckpoint = 8
	defaultCGRestarts   = 8
)

// cgrestartWorkload is the checksum-guarded restarted variant of the CG
// solve: unlike cgsolve (which keeps the iterate vectors in safe
// memory), here the solver's dynamic state — x, r, and p — is parked in
// the unreliable memory after every iteration and read back before the
// next one, so iterate corruption compounds unless it is caught. The
// safe memory holds only O(1) guard state per vector (an exact
// element-sum checksum) plus one checkpoint copy of x. A trip — a DUE
// flag from a detecting arm, or a checksum mismatch on read-back, or an
// alpha/beta breakdown — rolls the solver back to the last checkpoint,
// relocates the vector window to fresh rows, and restarts the
// iteration; after the restart budget is exhausted the guards switch
// off and the solver runs open-loop on whatever the memory returns.
// Quality is judged exactly like cgsolve: the clean-system relative
// residual of the final x, log-mapped onto [0, 1] against the
// fault-free reference.
type cgrestartWorkload struct{}

func (cgrestartWorkload) Name() string   { return "cgrestart" }
func (cgrestartWorkload) Metric() string { return "Relative Residual" }

// cgrestartInstance is read-only after Prepare: the clean flattened
// system [A row-major | b], the control-loop geometry, and the
// fault-free reference residual.
type cgrestartInstance struct {
	flat       []float64 // codec-exact A (dim*dim) then b (dim)
	dim        int
	iters      int
	checkpoint int
	restarts   int
	res0       float64 // fault-free relative residual after iters steps
	normB      float64
}

// cgrestartScratch is the per-shard safe-memory working set: the
// iterate vectors (transiently, between the store and the load of each
// step), the matrix-vector product, and the checkpoint copy of x.
type cgrestartScratch struct {
	x, r, p, ap, ck []float64
}

func (w cgrestartWorkload) Prepare(p Params) (Instance, error) {
	dim := p.Dim
	if dim == 0 {
		dim = defaultCGDim
	}
	if dim < 2 {
		return nil, fmt.Errorf("workload: cgrestart needs dimension >= 2, got %d", dim)
	}
	iters := p.Iters
	if iters == 0 {
		iters = dim
	}
	if iters < 1 {
		return nil, fmt.Errorf("workload: cgrestart needs at least 1 iteration, got %d", iters)
	}
	checkpoint := p.Checkpoint
	if checkpoint == 0 {
		checkpoint = defaultCGCheckpoint
	}
	if checkpoint < 1 {
		return nil, fmt.Errorf("workload: cgrestart needs checkpoint interval >= 1, got %d", checkpoint)
	}
	restarts := p.Restarts
	if restarts == 0 {
		restarts = defaultCGRestarts
	}
	if restarts < 0 {
		restarts = 0
	}
	inst := &cgrestartInstance{
		flat:       make([]float64, dim*dim+dim),
		dim:        dim,
		iters:      iters,
		checkpoint: checkpoint,
		restarts:   restarts,
	}
	rng := stats.Derive(p.Seed, 79)
	inst.normB = genCGSystem(rng, dim, inst.flat)
	if inst.normB == 0 {
		return nil, fmt.Errorf("workload: cgrestart zero right-hand side")
	}

	// Fault-free reference: the guarded iteration with no memory attached
	// runs the identical quantized recurrence (every iterate is snapped to
	// the fixed-point grid whether or not a memory holds it), so a trial
	// on a fault-free arm reproduces these iterates bit-for-bit and
	// scores exactly 1.0.
	s := &cgrestartScratch{}
	x := inst.runGuarded(s, inst.flat[:dim*dim], inst.flat[dim*dim:], nil, memstore.DefaultCodec())
	inst.res0 = cleanRelResidual(inst.flat, dim, inst.normB, x)
	if !(inst.res0 < 1) {
		return nil, fmt.Errorf("workload: fault-free guarded CG did not converge (relative residual %g)", inst.res0)
	}
	return inst, nil
}

func (inst *cgrestartInstance) Metric() string { return "Relative Residual" }
func (inst *cgrestartInstance) Clean() float64 { return inst.res0 }

func (inst *cgrestartInstance) StoreOn(ws *Workspace) {
	ws.Codec.EncodeValuesInto(&ws.Store, inst.flat)
}

func (inst *cgrestartInstance) RunTrial(ws *Workspace, _ *rand.Rand) (float64, error) {
	vals := ws.TripValues()
	if len(vals) != len(inst.flat) {
		return 0, fmt.Errorf("workload: cgrestart round trip returned %d values for %d coefficients", len(vals), len(inst.flat))
	}
	s, ok := ws.Scratch.(*cgrestartScratch)
	if !ok {
		s = &cgrestartScratch{}
		ws.Scratch = s
	}
	d := inst.dim
	// The coefficients take the fault toll once (the round trip above);
	// the iterate vectors take it every step via the guarded store/load
	// cycle against the live memory.
	x := inst.runGuarded(s, vals[:d*d], vals[d*d:], ws.Mem, ws.Codec)
	return qualityFromResidual(cleanRelResidual(inst.flat, d, inst.normB, x), inst.res0), nil
}

// runGuarded runs the checksum-guarded CG iteration on the (possibly
// corrupted) system [a | b], parking x/r/p in m after each step and
// reading them back before the next. m == nil runs the identical
// quantized recurrence with no storage — the fault-free reference. A
// memory too small for the 3-vector window (m.Words() < 3*dim) also
// degrades to safe-memory vectors: the guards have nothing to guard.
// Returns s.x.
func (inst *cgrestartInstance) runGuarded(s *cgrestartScratch, a, b []float64, m mem.Word32, codec memstore.Codec) []float64 {
	d := inst.dim
	if cap(s.x) < d {
		s.x = make([]float64, d)
		s.r = make([]float64, d)
		s.p = make([]float64, d)
		s.ap = make([]float64, d)
		s.ck = make([]float64, d)
	}
	x, r, p, ap, ck := s.x[:d], s.r[:d], s.p[:d], s.ap[:d], s.ck[:d]
	for i := range x {
		x[i] = 0
		r[i] = b[i]
		p[i] = b[i]
		ck[i] = 0
	}
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
		// rs is recomputed from the current (stored-and-loaded, hence
		// quantized) residual rather than carried across the iteration:
		// a carried scalar would be stale the moment quantization or a
		// rollback touches r.
		rs := dot(r, r)
		if rs == 0 || !isFinite(rs) {
			break
		}
		for i := 0; i < d; i++ {
			row := a[i*d : (i+1)*d]
			sum := 0.0
			for j, v := range row {
				sum += v * p[j]
			}
			ap[i] = sum
		}
		pap := dot(p, ap)
		if pap == 0 || !isFinite(pap) {
			// Breakdown of the step scalars is itself evidence of corrupted
			// iterate state: under guards it trips the rollback like any
			// checksum mismatch would.
			if guards && restarts < inst.restarts {
				restarts++
				off = nextWindow(off, words, d)
				inst.rollback(x, r, p, ck, a, b, codec)
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
		rsNew := dot(r, r)
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		// Snap the iterates to the fixed-point grid: the value a
		// fault-free store-and-load returns. Keeping the reference run on
		// the same grid is what makes no-fault trials score exactly 1.0.
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
				inst.rollback(x, r, p, ck, a, b, codec)
				ckStep = step
				continue
			}
			// Budget exhausted: graceful degradation. The guards switch
			// off and the iteration continues on the corrupted read-back
			// values — exactly what the unguarded selective-reliability
			// solver would do.
			guards = false
		}
		if guards && step-ckStep >= inst.checkpoint {
			copy(ck, x)
			ckStep = step
		}
	}
	return x
}

// rollback restores the solver to the last checkpoint: x from the safe
// copy, r recomputed as b - A x against the (corrupted) coefficient
// snapshot, p reset to r — a cold CG restart warm-started at the
// checkpointed solution. The recomputed vectors are grid-snapped like
// every other iterate.
func (inst *cgrestartInstance) rollback(x, r, p, ck, a, b []float64, codec memstore.Codec) {
	d := inst.dim
	copy(x, ck)
	for i := 0; i < d; i++ {
		row := a[i*d : (i+1)*d]
		sum := b[i]
		for j, v := range row {
			sum -= v * x[j]
		}
		r[i] = codec.Decode(codec.Encode(sum))
	}
	copy(p, r)
}

// nextWindow relocates the 3-vector window after a trip so the restart
// does not land on the same faulty rows, wrapping to the macro base
// when the next slot would overflow.
func nextWindow(off, words, d int) int {
	next := off + 3*d
	if next+3*d > words {
		next = 0
	}
	return next
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
// checked against. Both sums accumulate the same values in the same
// order, so a clean round trip matches bit-for-bit.
func storeVec(m mem.Word32, codec memstore.Codec, off int, v []float64) float64 {
	sum := 0.0
	for i, f := range v {
		m.Write(off+i, codec.Encode(f))
		sum += f
	}
	return sum
}

// loadVec reads v back from m at off, returning the element sum of the
// decoded values and whether any word raised a DUE flag (codeless arms
// never flag).
func loadVec(m mem.Word32, codec memstore.Codec, off int, v []float64) (sum float64, due bool) {
	for i := range v {
		w, flagged := m.ReadChecked(off + i)
		due = due || flagged
		v[i] = codec.Decode(w)
		sum += v[i]
	}
	return sum, due
}
