package workload

import (
	"fmt"
	"math"
	"math/rand"

	"faultmem/internal/mat"
	"faultmem/internal/memstore"
	"faultmem/internal/stats"
)

// Default CG geometry: a 64x64 SPD system solved with a 64-iteration
// budget (exact-arithmetic CG converges in at most Dim steps).
const defaultCGDim = 64

// cgWorkload is a selective-reliability conjugate-gradient solve
// (Bridges et al.): the system coefficients — the SPD matrix A and the
// right-hand side b — live in the faulty memory, while the solver's
// dynamic state (the solution x, residual r, and direction vectors)
// stays in safe memory. The trial runs a fixed CG iteration budget
// against the corrupted coefficients and is judged by the relative
// residual of its solution under the CLEAN system, so a corrupted
// coefficient hurts exactly as much as it steers the iteration away
// from the true solution. Quality maps the residual onto [0, 1] on a
// log scale: 1 at the fault-free converged residual, 0 at relative
// residual 1 (the zero-vector baseline) or any non-finite breakdown.
type cgWorkload struct{}

func (cgWorkload) Name() string   { return "cgsolve" }
func (cgWorkload) Metric() string { return "Relative Residual" }

// cgInstance is read-only after Prepare: the clean flattened system
// [A row-major | b], the clean A in 4-row panels for the judging
// residual, its geometry, and the fault-free reference residual.
type cgInstance struct {
	flat  []float64 // codec-exact A (dim*dim) then b (dim)
	a     mat.Panels
	dim   int
	iters int
	res0  float64 // fault-free relative residual after iters steps
	normB float64
}

// cgScratch is the per-shard safe-memory working set: the iterate
// vectors and the trial's (possibly corrupted) A in 4-row panels.
type cgScratch struct {
	x, r, p, ap []float64
	a           mat.Panels
}

func (w cgWorkload) Prepare(p Params) (Instance, error) {
	dim := p.Dim
	if dim == 0 {
		dim = defaultCGDim
	}
	if dim < 2 {
		return nil, fmt.Errorf("workload: cgsolve needs dimension >= 2, got %d", dim)
	}
	iters := p.Iters
	if iters == 0 {
		iters = dim
	}
	if iters < 1 {
		return nil, fmt.Errorf("workload: cgsolve needs at least 1 iteration, got %d", iters)
	}
	inst := &cgInstance{flat: make([]float64, dim*dim+dim), dim: dim, iters: iters}
	rng := stats.Derive(p.Seed, 78)
	inst.normB = genCGSystem(rng, dim, inst.flat)
	if inst.normB == 0 {
		return nil, fmt.Errorf("workload: cgsolve zero right-hand side")
	}
	inst.a.Pack(inst.flat, dim, dim)

	// Fault-free reference: CG on the clean coefficients.
	s := &cgScratch{}
	x := runCG(s, inst.flat[:dim*dim], inst.flat[dim*dim:], dim, iters)
	inst.res0 = inst.relResidual(s, x)
	if !(inst.res0 < 1) {
		return nil, fmt.Errorf("workload: fault-free CG did not converge (relative residual %g)", inst.res0)
	}
	return inst, nil
}

func (inst *cgInstance) Metric() string { return "Relative Residual" }
func (inst *cgInstance) Clean() float64 { return inst.res0 }

func (inst *cgInstance) StoreOn(ws *Workspace) {
	ws.Codec.EncodeValuesInto(&ws.Store, inst.flat)
}

func (inst *cgInstance) RunTrial(ws *Workspace, _ *rand.Rand) (float64, error) {
	vals := ws.TripValues()
	if len(vals) != len(inst.flat) {
		return 0, fmt.Errorf("workload: cgsolve round trip returned %d values for %d coefficients", len(vals), len(inst.flat))
	}
	s, ok := ws.Scratch.(*cgScratch)
	if !ok {
		s = &cgScratch{}
		ws.Scratch = s
	}
	d := inst.dim
	// Iterate against the corrupted coefficients (persistent faults:
	// every read of a cell sees the same corruption, so one snapshot per
	// trial is exact), judge against the clean system.
	x := runCG(s, vals[:d*d], vals[d*d:], d, inst.iters)
	return qualityFromResidual(inst.relResidual(s, x), inst.res0), nil
}

// genCGSystem fills flat = [A row-major | b] with a codec-snapped SPD
// system drawn from rng and returns ||b||. A = M^T M / dim + I has a
// decent condition number; every coefficient is snapped to the
// fixed-point grid so a fault-free round trip is bit-identical and the
// no-fault trial scores exactly 1.0. (Quantization breaks exact
// symmetry ties never — Encode is a pure function of the value and A
// was symmetric before snapping — so the stored A stays SPD for CG's
// purposes.)
func genCGSystem(rng *rand.Rand, dim int, flat []float64) float64 {
	codec := memstore.DefaultCodec()
	m := make([]float64, dim*dim)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	a := flat[:dim*dim]
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			s := 0.0
			for k := 0; k < dim; k++ {
				s += m[k*dim+i] * m[k*dim+j]
			}
			s /= float64(dim)
			if i == j {
				s++
			}
			a[i*dim+j] = codec.Decode(codec.Encode(s))
		}
	}
	b := flat[dim*dim:]
	for i := range b {
		b[i] = codec.Decode(codec.Encode(rng.NormFloat64() * 10))
	}
	return norm2(b)
}

// qualityFromResidual maps a trial's clean-system relative residual onto
// [0, 1]: 1 at (or below) the fault-free reference residual res0, 0 at
// relative residual 1 (the zero-vector baseline) or any non-finite
// breakdown, log-scale interpolation between.
func qualityFromResidual(res, res0 float64) float64 {
	switch {
	case !(res >= 0) || math.IsInf(res, 0): // NaN or +Inf: solver breakdown
		return 0
	case res <= res0:
		return 1
	case res >= 1:
		return 0
	default:
		return math.Log(res) / math.Log(res0)
	}
}

// relResidual returns ||b - A x|| / ||b|| under the CLEAN system, with
// s's r and p (free once runCG returns x) as its scratch.
func (inst *cgInstance) relResidual(s *cgScratch, x []float64) float64 {
	d := inst.dim
	return cleanRelResidual(&inst.a, inst.flat[d*d:], inst.normB, x, s.r[:d], s.p[:d])
}

// cleanRelResidual returns ||b - A x|| / ||b|| for the clean system (A
// in panels, b) — the judging metric both CG workloads share. b - Ax is
// computed row by row as b + A(-x): a negated product is exact, and
// t - u is t + (-u) in IEEE arithmetic, so every row keeps the bits of
// a subtracting serial sum. negX and res are scratch of len(x) each.
func cleanRelResidual(a *mat.Panels, b []float64, normB float64, x, negX, res []float64) float64 {
	for i, f := range x {
		negX[i] = -f
	}
	a.MulVecInto(res, negX, b)
	var ss float64
	for _, ri := range res {
		ss += ri * ri
	}
	return math.Sqrt(ss) / normB
}

// runCG runs the conjugate-gradient iteration x_0 = 0 on the (possibly
// corrupted) system, reusing the scratch vectors, and returns s.x. A·p
// is the shared panel kernel, one serial sum per row. It stops early
// only on exact or non-finite residual breakdown; the returned x is
// whatever the iteration reached.
func runCG(s *cgScratch, a, b []float64, dim, iters int) []float64 {
	if cap(s.x) < dim {
		s.x = make([]float64, dim)
		s.r = make([]float64, dim)
		s.p = make([]float64, dim)
		s.ap = make([]float64, dim)
	}
	x, r, p, ap := s.x[:dim], s.r[:dim], s.p[:dim], s.ap[:dim]
	s.a.Pack(a, dim, dim)
	for i := range x {
		x[i] = 0
		r[i] = b[i]
		p[i] = b[i]
	}
	rs := dot(r, r)
	for it := 0; it < iters; it++ {
		if rs == 0 || !isFinite(rs) {
			break
		}
		s.a.MulVecInto(ap, p, nil)
		pap := dot(p, ap)
		if pap == 0 || !isFinite(pap) {
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
		rs = rsNew
	}
	return x
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
