package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"faultmem/internal/core"
	"faultmem/internal/fault"
	"faultmem/internal/hw"
	"faultmem/internal/mc"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
	"faultmem/internal/wire"
)

// This file holds the ablation studies — experiments beyond the
// paper's evaluation that quantify its design decisions: the
// multi-fault FM-LUT policy, the FM-LUT realization trade-off (§5.1's
// remark), and the scheme's behaviour under transient faults it was
// never designed to mitigate.

// AblationMultiFaultRow compares the FM-LUT selection policies on rows
// holding k faults: the exhaustive BestX search versus the paper's
// single-fault rule applied to the most significant fault.
type AblationMultiFaultRow struct {
	NFM          int
	FaultsPerRow int
	MeanMSEBest  float64 // mean per-row squared-error sum, BestX
	MeanMSEPaper float64 // same under the paper-rule extension
	PaperPenalty float64 // MeanMSEPaper / MeanMSEBest
}

// AppendBinary appends the binary form of r, the study's shard type:
// NFM and FaultsPerRow as int64, then the three means, all 8-byte
// little-endian (package wire).
func (r AblationMultiFaultRow) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendInt(b, r.NFM)
	b = wire.AppendInt(b, r.FaultsPerRow)
	b = wire.AppendFloat64(b, r.MeanMSEBest)
	b = wire.AppendFloat64(b, r.MeanMSEPaper)
	return wire.AppendFloat64(b, r.PaperPenalty), nil
}

// UnmarshalBinary replaces r with the row encoded in b.
func (r *AblationMultiFaultRow) UnmarshalBinary(b []byte) error {
	rd := wire.NewReader(b)
	row := AblationMultiFaultRow{
		NFM: rd.Int(), FaultsPerRow: rd.Int(),
		MeanMSEBest: rd.Float64(), MeanMSEPaper: rd.Float64(), PaperPenalty: rd.Float64(),
	}
	if err := rd.Close(); err != nil {
		return fmt.Errorf("exp: corrupt AblationMultiFaultRow encoding: %w", err)
	}
	*r = row
	return nil
}

// MultiFaultParams configures the FM-LUT multi-fault policy study.
type MultiFaultParams struct {
	// Seed drives the per-(nFM, k) RNG streams.
	Seed int64
	// Trials is the Monte-Carlo row count per (nFM, faults-per-row) point.
	Trials int
}

// DefaultMultiFaultParams matches the CLI's historical defaults.
func DefaultMultiFaultParams() MultiFaultParams { return MultiFaultParams{Seed: 5, Trials: 5000} }

// AblationMultiFault runs the policy comparison: for each nFM and
// faults-per-row count, Monte-Carlo rows with k distinct faulty columns
// are scored under both policies. Every (nFM, k) point is one shard of
// the mc engine — its own deterministic RNG stream, evaluated in
// parallel, assembled in sweep order — so the rows are identical while
// the context stays live, ctx.Err() when cancelled mid-study.
func AblationMultiFault(env mc.Env, p MultiFaultParams) ([]AblationMultiFaultRow, error) {
	if p.Trials < 1 {
		return nil, fmt.Errorf("exp: ablate-multifault params: Trials = %d, want >= 1", p.Trials)
	}
	trials := p.Trials
	type combo struct{ nfm, k int }
	var combos []combo
	for nfm := 1; nfm <= 5; nfm++ {
		for _, k := range []int{2, 3, 4} {
			combos = append(combos, combo{nfm, k})
		}
	}
	return mc.RunEnv(env, 0, len(combos), p.Seed, func(i int, rng *rand.Rand) AblationMultiFaultRow {
		c := combos[i]
		cfg := core.Config{Width: 32, NFM: c.nfm}
		sumBest, sumPaper := 0.0, 0.0
		for t := 0; t < trials; t++ {
			cols := stats.SampleDistinct(rng, 32, c.k)
			sumBest += rowMSE(cfg.ResidualPositions(cols))
			sumPaper += rowMSE(cfg.ResidualPositionsPaperRule(cols))
		}
		return AblationMultiFaultRow{
			NFM:          c.nfm,
			FaultsPerRow: c.k,
			MeanMSEBest:  sumBest / float64(trials),
			MeanMSEPaper: sumPaper / float64(trials),
			PaperPenalty: sumPaper / sumBest,
		}
	})
}

func rowMSE(positions []int) float64 {
	s := 0.0
	for _, b := range positions {
		m := math.Ldexp(1, b)
		s += m * m
	}
	return s
}

// AblationMultiFaultTable renders the policy comparison.
func AblationMultiFaultTable(rows []AblationMultiFaultRow) *Table {
	t := &Table{
		Title:  "Ablation - FM-LUT policy on multi-fault rows (BestX search vs paper single-fault rule)",
		Header: []string{"nFM", "faults/row", "mean sq.err (BestX)", "mean sq.err (paper rule)", "penalty"},
		Notes: []string{
			"the paper assumes one fault per word; this quantifies how much the exhaustive",
			"2^nFM-entry search buys when that assumption breaks (penalty = paper/best)",
		},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.NFM),
			fmt.Sprintf("%d", r.FaultsPerRow),
			fmt.Sprintf("%.4g", r.MeanMSEBest),
			fmt.Sprintf("%.4g", r.MeanMSEPaper),
			fmt.Sprintf("%.2fx", r.PaperPenalty),
		)
	}
	return t
}

// AblationLUTTable renders the §5.1 FM-LUT realization trade-off: SRAM
// columns (read-before-write on the write path) versus a register file
// (no write penalty, flop area).
func AblationLUTTable(rows int) *Table {
	lib := hw.Lib28nm()
	macro := hw.Macro28nm(rows)
	t := &Table{
		Title: fmt.Sprintf("Ablation - FM-LUT realization (%d-row macro): columns vs register file", rows),
		Header: []string{"nFM", "LUT area cols [um^2]", "LUT area regfile [um^2]",
			"write delay cols [ps]", "write delay regfile [ps]", "read delay [ps]"},
		Notes: []string{
			"SRAM-column LUT serializes a LUT read before every write (paper Section 5.1);",
			"a register file removes that penalty at a large flop-area cost for deep macros",
		},
	}
	for _, r := range hw.LUTAblation(lib, macro) {
		t.AddRow(
			fmt.Sprintf("%d", r.NFM),
			fmt.Sprintf("%.0f", r.ColumnArea),
			fmt.Sprintf("%.0f", r.RegFileArea),
			fmt.Sprintf("%.0f", r.ColumnWriteDelay),
			fmt.Sprintf("%.0f", r.RegFileWriteDelay),
			fmt.Sprintf("%.0f", r.ReadDelay),
		)
	}
	return t
}

// AblationTransientRow measures one scheme's mean observed read MSE under
// combined persistent and transient (soft-error) faults.
type AblationTransientRow struct {
	Scheme        Protection
	TransientRate float64
	MeanMSE       float64
}

// AblationTransientPoint is one shard of the soft-error study: one
// (arm, rate) point's row, or the error that stopped it as text.
type AblationTransientPoint struct {
	Row AblationTransientRow
	Err string
}

// AppendBinary appends the binary form of p: the row's scheme as int64,
// its rate and mean MSE, then the error's length and bytes. Numbers are
// 8-byte little-endian (package wire).
func (p AblationTransientPoint) AppendBinary(b []byte) ([]byte, error) {
	b = wire.AppendInt(b, int(p.Row.Scheme))
	b = wire.AppendFloat64(b, p.Row.TransientRate)
	b = wire.AppendFloat64(b, p.Row.MeanMSE)
	return wire.AppendString(b, p.Err), nil
}

// UnmarshalBinary replaces p with the point encoded in b.
func (p *AblationTransientPoint) UnmarshalBinary(b []byte) error {
	rd := wire.NewReader(b)
	pt := AblationTransientPoint{
		Row: AblationTransientRow{Scheme: Protection(rd.Int()), TransientRate: rd.Float64(), MeanMSE: rd.Float64()},
		Err: rd.Str(),
	}
	if err := rd.Close(); err != nil {
		return fmt.Errorf("exp: corrupt AblationTransientPoint encoding: %w", err)
	}
	*p = pt
	return nil
}

// TransientParams configures the soft-error boundary study.
type TransientParams struct {
	// Seed drives the persistent fault map and the per-point streams.
	Seed int64
	// Rows is the macro depth.
	Rows int
	// Pcell is the persistent fault probability.
	Pcell float64
	// Rates are the per-read transient flip rates swept (0 = none).
	Rates []float64
	// Reads is the number of read passes per row.
	Reads int
}

// DefaultTransientParams matches the CLI's historical defaults.
func DefaultTransientParams() TransientParams {
	return TransientParams{Seed: 5, Rows: 1024, Pcell: 1e-4, Rates: []float64{0, 1e-5, 1e-4}, Reads: 8}
}

// AblationTransient runs the functional soft-error study: memories
// carry a persistent fault map at Pcell plus per-read transient flips at
// each rate; all-zero data is written and re-read, and the observed flip
// pattern is scored like Eq. (6). Bit-shuffling mitigates only the
// persistent part (the FM-LUT cannot know where a soft error will
// strike), while SECDED corrects any single error per word regardless of
// origin — the boundary of the paper's approach. The rows are identical
// while the context stays live, ctx.Err() when cancelled mid-study.
func AblationTransient(env mc.Env, p TransientParams) ([]AblationTransientRow, error) {
	seed, rows, pcell, rates, readsPerCell := p.Seed, p.Rows, p.Pcell, p.Rates, p.Reads
	if rows < 1 || readsPerCell < 1 {
		return nil, fmt.Errorf("exp: ablate-transient params: Rows = %d, Reads = %d; want both >= 1", rows, readsPerCell)
	}
	if !(pcell >= 0 && pcell < 1) {
		return nil, fmt.Errorf("exp: ablate-transient params: Pcell = %g; want it in [0, 1)", pcell)
	}
	for _, rate := range rates {
		if !(rate >= 0 && rate < 1) {
			return nil, fmt.Errorf("exp: ablate-transient params: Rates holds %g; want every rate in [0, 1)", rate)
		}
	}
	arms := []Protection{ProtNone, ProtShuffle5, ProtPECC, ProtECC}
	// One persistent fault map shared by every arm and rate, so the rows
	// differ only in the scheme and the soft-error intensity. Each
	// (arm, rate) point then runs as its own shard of the mc engine —
	// independent functional memories, evaluated in parallel.
	persistent := fault.GeneratePcell(stats.Derive(seed, 0), rows, 32, pcell, fault.Flip)
	outs, runErr := mc.RunEnv(env, 0, len(arms)*len(rates), stats.DeriveSeed(seed, 1000),
		func(i int, rng *rand.Rand) AblationTransientPoint {
			arm, rate := arms[i/len(rates)], rates[i%len(rates)]
			m, err := arm.Build(rows, persistent)
			if err != nil {
				return AblationTransientPoint{Err: err.Error()}
			}
			if rate > 0 {
				aa, ok := m.(interface{ Array() *sram.Array })
				if !ok {
					return AblationTransientPoint{Err: fmt.Sprintf("exp: ablate-transient arm %v exposes no bit-cell array", arm)}
				}
				aa.Array().SetTransient(rate, rng)
			}
			for r := 0; r < rows; r++ {
				m.Write(r, 0)
			}
			sum := 0.0
			for pass := 0; pass < readsPerCell; pass++ {
				for r := 0; r < rows; r++ {
					got := uint64(m.Read(r))
					for v := got; v != 0; v &= v - 1 {
						b := bits.TrailingZeros64(v)
						e := math.Ldexp(1, b)
						sum += e * e
					}
				}
			}
			return AblationTransientPoint{Row: AblationTransientRow{
				Scheme:        arm,
				TransientRate: rate,
				MeanMSE:       sum / float64(rows*readsPerCell),
			}}
		})
	if runErr != nil {
		return nil, runErr
	}
	out := make([]AblationTransientRow, 0, len(outs))
	for _, o := range outs {
		if o.Err != "" {
			return nil, errors.New(o.Err)
		}
		out = append(out, o.Row)
	}
	return out, nil
}

// AblationTransientTable renders the soft-error study.
func AblationTransientTable(rows []AblationTransientRow, pcell float64) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation - transient (soft) errors on top of persistent faults (Pcell=%.0e)", pcell),
		Header: []string{"scheme", "transient rate", "mean observed MSE per read"},
		Notes: []string{
			"bit-shuffling mitigates only persistent faults (the BIST-programmed FM-LUT cannot",
			"target soft errors); SECDED corrects one error per word regardless of origin -",
			"the boundary of the paper's approach, made explicit",
			"interaction: a persistent fault consumes SECDED's single-error budget, so a",
			"transient striking an already-faulty word becomes uncorrectable - ECC's advantage",
			"erodes exactly where the fault density is highest",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Scheme.String(),
			fmt.Sprintf("%.0e", r.TransientRate),
			fmt.Sprintf("%.4g", r.MeanMSE))
	}
	return t
}

// LUTParams configures the FM-LUT realization trade-off exhibit.
type LUTParams struct {
	// Rows is the macro depth the LUT serves.
	Rows int
}

// DefaultLUTParams uses the 16 KB macro.
func DefaultLUTParams() LUTParams { return LUTParams{Rows: 4096} }

// multiFaultExperiment adapts the FM-LUT policy study to the registry.
type multiFaultExperiment struct{}

func (multiFaultExperiment) Name() string { return "ablate-multifault" }
func (multiFaultExperiment) Description() string {
	return "FM-LUT policy on multi-fault rows: BestX vs paper rule"
}
func (multiFaultExperiment) DefaultParams() any { return DefaultMultiFaultParams() }

func (e multiFaultExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[MultiFaultParams](r, e)
	if err != nil {
		return nil, err
	}
	p.Seed = r.seedOr(p.Seed)
	if r.quick() && p.Trials > 1000 {
		p.Trials = 1000
	}
	rows, err := AblationMultiFault(r.env(ctx, e.Name(), ""), p)
	if err != nil {
		return nil, err
	}
	return &Result{Experiment: e.Name(), Params: p, Tables: []*Table{AblationMultiFaultTable(rows)}}, nil
}

// lutExperiment adapts the LUT realization trade-off to the registry.
type lutExperiment struct{}

func (lutExperiment) Name() string { return "ablate-lut" }
func (lutExperiment) Description() string {
	return "FM-LUT realization trade-off: SRAM columns vs register file"
}
func (lutExperiment) DefaultParams() any { return DefaultLUTParams() }

func (e lutExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[LUTParams](r, e)
	if err != nil {
		return nil, err
	}
	if p.Rows < 1 {
		return nil, fmt.Errorf("exp: %s params: Rows = %d, want >= 1", e.Name(), p.Rows)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Result{Experiment: e.Name(), Params: p, Tables: []*Table{AblationLUTTable(p.Rows)}}, nil
}

// transientExperiment adapts the soft-error boundary study to the
// registry.
type transientExperiment struct{}

func (transientExperiment) Name() string { return "ablate-transient" }
func (transientExperiment) Description() string {
	return "soft errors on top of persistent faults (scheme boundary)"
}
func (transientExperiment) DefaultParams() any { return DefaultTransientParams() }

func (e transientExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[TransientParams](r, e)
	if err != nil {
		return nil, err
	}
	p.Seed = r.seedOr(p.Seed)
	if r.quick() && p.Rows > 256 {
		p.Rows = 256
	}
	rows, err := AblationTransient(r.env(ctx, e.Name(), ""), p)
	if err != nil {
		return nil, err
	}
	return &Result{Experiment: e.Name(), Params: p, Tables: []*Table{AblationTransientTable(rows, p.Pcell)}}, nil
}
