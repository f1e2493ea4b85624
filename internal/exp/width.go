package exp

import (
	"context"
	"fmt"

	"faultmem/internal/core"
	"faultmem/internal/ecc"
	"faultmem/internal/hw"
)

// WidthParams configures the word-width generalization exhibit.
type WidthParams struct {
	// Rows is the macro depth.
	Rows int
}

// DefaultWidthParams uses the 16 KB macro depth.
func DefaultWidthParams() WidthParams { return WidthParams{Rows: 4096} }

// WidthRow compares the bit-shuffling scheme against full SECDED at one
// word width: the finest-granularity shuffle (nFM = log2 W) and the
// half-word shuffle (nFM = 1) relative to the width's SECDED code.
type WidthRow struct {
	Width      int
	ECCName    string
	ECCColumns int
	// Finest / Coarsest are the relative overheads (power, delay, area)
	// of nFM = log2(W) and nFM = 1 against the width's SECDED.
	Finest, Coarsest [3]float64
	// MaxErrFinest / MaxErrCoarsest are the single-fault error-magnitude
	// bounds 2^(S-1).
	MaxErrFinest, MaxErrCoarsest uint64
}

// WidthAblation evaluates the scheme across word widths. For 64-bit
// words — beyond the single-codeword SECDED constructor — the customary
// two-way interleaving of H(39,32) is used (two independent codes over
// the word halves, decoded in parallel: columns add, delay is the max).
func WidthAblation(rows int) []WidthRow {
	lib := hw.Lib28nm()
	macro := hw.Macro28nm(rows)
	var out []WidthRow
	for _, w := range []int{16, 32, 64} {
		var eccOv hw.Overhead
		var eccName string
		switch w {
		case 64:
			// Interleaved 2 x H(39,32): parity columns double, decoder
			// logic doubles, critical path stays one decoder deep.
			single := hw.ECCOverhead(lib, macro, ecc.H39_32())
			eccOv = hw.Overhead{
				Name:       "2xH(39,32) ECC",
				ReadEnergy: 2 * single.ReadEnergy,
				ReadDelay:  single.ReadDelay,
				Area:       2 * single.Area,
				Columns:    2 * single.Columns,
				LogicGates: 2 * single.LogicGates,
			}
			eccName = eccOv.Name
		default:
			code := ecc.MustNew(w)
			eccOv = hw.ECCOverhead(lib, macro, code)
			eccName = code.Name() + " ECC"
		}

		logW := 0
		for 1<<uint(logW) < w {
			logW++
		}
		fine := hw.ShuffleOverhead(lib, macro, core.Config{Width: w, NFM: logW})
		coarse := hw.ShuffleOverhead(lib, macro, core.Config{Width: w, NFM: 1})
		rel := func(o hw.Overhead) [3]float64 {
			return [3]float64{
				o.ReadEnergy / eccOv.ReadEnergy,
				o.ReadDelay / eccOv.ReadDelay,
				o.Area / eccOv.Area,
			}
		}
		out = append(out, WidthRow{
			Width:          w,
			ECCName:        eccName,
			ECCColumns:     eccOv.Columns,
			Finest:         rel(fine),
			Coarsest:       rel(coarse),
			MaxErrFinest:   core.Config{Width: w, NFM: logW}.MaxErrorMagnitude(),
			MaxErrCoarsest: core.Config{Width: w, NFM: 1}.MaxErrorMagnitude(),
		})
	}
	return out
}

// WidthTable renders the width ablation.
func WidthTable(rows []WidthRow) *Table {
	t := &Table{
		Title: "Ablation - word-width generalization: shuffle vs full SECDED per width",
		Header: []string{"W", "SECDED ref", "parity cols",
			"nFM=1 rel (P/D/A)", "nFM=log2W rel (P/D/A)", "max err nFM=1", "max err nFM=log2W"},
		Notes: []string{
			"the 64-bit SECDED reference is the customary 2-way interleaved H(39,32);",
			"relative overhead = (power, delay, area) vs that width's SECDED",
			"wider words amortize parity columns better, yet the shuffle advantage persists",
			"because the shifter grows linearly while decoders grow with code size",
		},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Width),
			r.ECCName,
			fmt.Sprintf("%d", r.ECCColumns),
			fmt.Sprintf("%.2f/%.2f/%.2f", r.Coarsest[0], r.Coarsest[1], r.Coarsest[2]),
			fmt.Sprintf("%.2f/%.2f/%.2f", r.Finest[0], r.Finest[1], r.Finest[2]),
			fmt.Sprintf("2^%d", log2u(r.MaxErrCoarsest)),
			fmt.Sprintf("2^%d", log2u(r.MaxErrFinest)),
		)
	}
	return t
}

func log2u(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// widthExperiment adapts the width generalization to the registry.
type widthExperiment struct{}

func (widthExperiment) Name() string { return "width" }
func (widthExperiment) Description() string {
	return "word-width generalization: shuffle vs SECDED at W=16/32/64"
}
func (widthExperiment) DefaultParams() any { return DefaultWidthParams() }

func (e widthExperiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	p, err := runnerParams[WidthParams](r, e)
	if err != nil {
		return nil, err
	}
	if p.Rows < 1 {
		return nil, fmt.Errorf("exp: %s params: Rows = %d, want >= 1", e.Name(), p.Rows)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Result{Experiment: e.Name(), Params: p, Tables: []*Table{WidthTable(WidthAblation(p.Rows))}}, nil
}
