package exp

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"faultmem/internal/core"
	"faultmem/internal/ecc"
	"faultmem/internal/fault"
	"faultmem/internal/hw"
	"faultmem/internal/mc"
	"faultmem/internal/redund"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
	"faultmem/internal/yield"
)

// EnergyParams configures the voltage-scaling payoff study: how far each
// protection scheme lets VDD scale under a fixed quality-yield
// requirement, and what that is worth in read energy. This quantifies
// the paper's conclusion — the scheme exists "for allowing operation at
// scaled voltages" (§6).
type EnergyParams struct {
	// Rows is the macro depth (4096 = 16 KB).
	Rows int
	// MSETarget is the §4 quality criterion (die qualifies if MSE < it).
	MSETarget float64
	// YieldTarget is the required fraction of qualifying dies.
	YieldTarget float64
	// Dies is the Monte-Carlo die count per (scheme, VDD) point.
	Dies int
	// VMin, VMax, Step define the swept supply range.
	VMin, VMax, Step float64
	// RedundancyBudget sizes the spare-line arm.
	RedundancyBudget redund.Budget
	// Seed drives the die sampling.
	Seed int64
	// Workers is the goroutine count used to evaluate the dies of each
	// voltage point (0 = GOMAXPROCS); results are worker-count-invariant.
	Workers int
}

// DefaultEnergyParams returns the 16 KB setup with the Section 4 quality
// criterion.
func DefaultEnergyParams() EnergyParams {
	return EnergyParams{
		Rows: 4096, MSETarget: 1e6, YieldTarget: 0.999, Dies: 400,
		VMin: 0.60, VMax: 0.90, Step: 0.02,
		RedundancyBudget: redund.Budget{SpareRows: 8, SpareCols: 8},
		Seed:             13,
	}
}

// EnergyRow is one scheme's outcome: the minimum viable supply voltage
// and the resulting read energy (baseline array + scheme overhead,
// scaled quadratically with VDD from the nominal characterization).
type EnergyRow struct {
	Name string
	// MinVDD is the lowest swept voltage meeting the yield requirement
	// (NaN if none does).
	MinVDD float64
	// ReadEnergy is the per-read energy at MinVDD in fJ.
	ReadEnergy float64
	// RelativeToECC is ReadEnergy over the H(39,32) arm's energy at its
	// own minimum voltage.
	RelativeToECC float64
}

// energyArm abstracts "does one die qualify" per scheme. Scheme arms
// judge the die straight off the sampler's row masks (no allocation);
// the spare-line arm is the one consumer that needs explicit fault
// coordinates for the repair allocator.
type energyArm struct {
	name string
	// scheme is the residual-error model; nil selects the redundancy arm.
	scheme yield.Scheme
	// overheadEnergy is the scheme's extra read energy at nominal VDD.
	overheadEnergy float64
}

// qualifies reports whether the sampler's current die meets the MSE
// target after this arm's mitigation.
func (a energyArm) qualifies(s *yield.RowSampler, budget redund.Budget, target float64) bool {
	if a.scheme != nil {
		return s.MSE(a.scheme) < target
	}
	// A repaired die is fault-free; an unrepairable die is rejected
	// (fails the criterion outright).
	_, ok := redund.Allocate(s.Faults(fault.Flip), budget)
	return ok
}

// EnergyStudyEnv sweeps VDD for every arm and returns the minimum
// viable voltage and read energy per scheme: bit-identical rows when the
// context stays live, ctx.Err() when it is cancelled or deadlined
// mid-sweep. The environment's OnShard counts completed voltage points
// (the sweep's outer unit of work).
func EnergyStudyEnv(env mc.Env, p EnergyParams) ([]EnergyRow, error) {
	if p.Rows < 1 || p.Dies < 1 || !(p.Step > 0) || !(p.VMax >= p.VMin) {
		return nil, fmt.Errorf("exp: energy params: Rows = %d, Dies = %d, VMin = %g, VMax = %g, Step = %g; want Rows >= 1, Dies >= 1, VMin <= VMax and Step > 0",
			p.Rows, p.Dies, p.VMin, p.VMax, p.Step)
	}
	lib := hw.Lib28nm()
	macro := hw.Macro28nm(p.Rows)
	model := sram.Default28nm()
	baseline := float64(32) * macro.ColReadEnergy // data columns of the raw array

	schemeArm := func(prot Protection) energyArm {
		s := prot.YieldScheme()
		var ov float64
		switch prot {
		case ProtNone:
			ov = 0
		case ProtECC:
			ov = hw.ECCOverhead(lib, macro, ecc.H39_32()).ReadEnergy
		case ProtPECC:
			ov = hw.PECCOverhead(lib, macro).ReadEnergy
		default:
			ov = hw.ShuffleOverhead(lib, macro, core.Config{Width: 32, NFM: prot.NFM()}).ReadEnergy
		}
		return energyArm{name: prot.String(), scheme: s, overheadEnergy: ov}
	}

	arms := []energyArm{
		schemeArm(ProtNone),
		{
			name: fmt.Sprintf("redundancy %d+%d", p.RedundancyBudget.SpareRows, p.RedundancyBudget.SpareCols),
			// Spare columns add read energy like parity columns would;
			// spare rows are inactive on normal reads.
			overheadEnergy: float64(p.RedundancyBudget.SpareCols) * macro.ColReadEnergy,
		},
		schemeArm(ProtShuffle1),
		schemeArm(ProtShuffle2),
		schemeArm(ProtShuffle5),
		schemeArm(ProtPECC),
		schemeArm(ProtECC),
	}

	// Common random numbers: every arm judges the *same* die samples at
	// each voltage, so structural dominance between schemes (e.g. nFM=2
	// never worse than nFM=1) survives the Monte-Carlo noise.
	minVDD := make([]float64, len(arms))
	alive := make([]bool, len(arms))
	for i := range arms {
		minVDD[i] = math.NaN()
		alive[i] = true
	}
	nPoints := int((p.VMax-p.VMin+1e-9)/p.Step) + 1
	inner := mc.Env{Ctx: env.Ctx} // points report progress; die shards stay quiet
	reported := 0
	vIdx := 0
	for v := p.VMax; v >= p.VMin-1e-9; v -= p.Step {
		vIdx++
		anyAlive := false
		for _, a := range alive {
			anyAlive = anyAlive || a
		}
		if !anyAlive {
			break
		}
		pcell := model.Pcell(v)
		// Evaluate the voltage point's dies on the mc engine: each shard
		// draws its dies from a stream derived from (seed, vIdx, shard)
		// and reports per-arm qualification counts, which sum in shard
		// order — identical for any worker count. Scheme arms are judged
		// allocation-free off the sampler's row masks.
		spans := mc.Split(p.Dies, 0)
		counts, err := mc.RunEnv(inner, p.Workers, len(spans), stats.DeriveSeed(p.Seed, int64(vIdx)),
			func(shard int, rng *rand.Rand) []int {
				sampler := yield.NewRowSampler(p.Rows, 32)
				ok := make([]int, len(arms))
				for d := spans[shard].Start; d < spans[shard].End; d++ {
					n := stats.SampleBinomial(rng, p.Rows*32, pcell)
					sampler.Reset()
					if n > 0 {
						sampler.Draw(rng, n)
					}
					for i, arm := range arms {
						if alive[i] && arm.qualifies(sampler, p.RedundancyBudget, p.MSETarget) {
							ok[i]++
						}
					}
				}
				return ok
			})
		if err != nil {
			return nil, err
		}
		if env.OnShard != nil {
			env.OnShard(vIdx, nPoints)
			reported = vIdx
		}
		ok := make([]int, len(arms))
		for _, shard := range counts {
			for i, c := range shard {
				ok[i] += c
			}
		}
		for i := range arms {
			if !alive[i] {
				continue
			}
			if float64(ok[i])/float64(p.Dies) >= p.YieldTarget {
				minVDD[i] = v
			} else {
				alive[i] = false // yield is monotone in VDD
			}
		}
	}

	// The sweep may end early once every arm has failed; progress
	// consumers still see a terminating done == total event.
	if env.OnShard != nil && reported < nPoints {
		env.OnShard(nPoints, nPoints)
	}

	rows := make([]EnergyRow, len(arms))
	for i, arm := range arms {
		row := EnergyRow{Name: arm.name, MinVDD: minVDD[i]}
		if !math.IsNaN(minVDD[i]) {
			scale := minVDD[i] * minVDD[i] // E ~ V^2 relative to the 1 V characterization
			row.ReadEnergy = (baseline + arm.overheadEnergy) * scale
		} else {
			row.ReadEnergy = math.NaN()
		}
		rows[i] = row
	}

	// Normalize to the ECC arm (last).
	eccEnergy := rows[len(rows)-1].ReadEnergy
	for i := range rows {
		rows[i].RelativeToECC = rows[i].ReadEnergy / eccEnergy
	}
	return rows, nil
}

// energyExperiment adapts the voltage-scaling payoff study to the
// registry.
type energyExperiment struct{}

func (energyExperiment) Name() string { return "energy" }
func (energyExperiment) Description() string {
	return "min viable VDD and read energy per scheme (the paper's payoff)"
}
func (energyExperiment) DefaultParams() any { return DefaultEnergyParams() }

func (e energyExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[EnergyParams](r, e)
	if err != nil {
		return nil, err
	}
	p.Seed = r.seedOr(p.Seed)
	p.Workers = r.workersOr(p.Workers)
	if r.quick() && p.Dies > 120 {
		p.Dies = 120
	}
	rows, err := EnergyStudyEnv(r.env(ctx, e.Name(), ""), p)
	if err != nil {
		return nil, err
	}
	return &Result{Experiment: e.Name(), Params: p, Tables: []*Table{EnergyTable(rows, p)}}, nil
}

// EnergyTable renders the study.
func EnergyTable(rows []EnergyRow, p EnergyParams) *Table {
	t := &Table{
		Title: fmt.Sprintf("Voltage-scaling payoff - min VDD and read energy at yield >= %.3f, MSE < %.0e",
			p.YieldTarget, p.MSETarget),
		Header: []string{"scheme", "min VDD [V]", "read energy [fJ]", "vs H(39,32) ECC"},
		Notes: []string{
			fmt.Sprintf("%d Monte-Carlo dies per (scheme, VDD) point; E ~ V^2 from the 28nm-class characterization", p.Dies),
			"this is the paper's conclusion quantified: mitigation that tolerates more faults lets VDD scale deeper, and the energy win compounds with the lower scheme overhead",
		},
	}
	for _, r := range rows {
		vdd := "-"
		energy := "-"
		rel := "-"
		if !math.IsNaN(r.MinVDD) {
			vdd = fmt.Sprintf("%.2f", r.MinVDD)
			energy = fmt.Sprintf("%.0f", r.ReadEnergy)
			rel = fmt.Sprintf("%.2f", r.RelativeToECC)
		}
		t.AddRow(r.Name, vdd, energy, rel)
	}
	return t
}
