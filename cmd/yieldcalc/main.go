// Command yieldcalc answers the §4 yield questions: given a memory size,
// an operating point (Pcell or VDD), and an MSE quality target, what
// fraction of manufactured dies qualifies under each protection scheme?
// It also sweeps VDD to show how far each scheme lets the supply scale at
// a fixed yield requirement — the paper's motivating trade-off.
//
//	yieldcalc -pcell 5e-6 -target 1e6
//	yieldcalc -sweep -target 1e6 -minyield 0.999
//	yieldcalc -schemes none,nfm2,ecc -pcell 1e-5
//
// Schemes are named by their canonical IDs (none, nfm1..nfm5, pecc, ecc —
// the same vocabulary as the faultmem experiment registry). The sweep
// evaluates all operating points concurrently on the Monte-Carlo engine
// (one pass per point, deterministic output order); -hist selects the CDF
// accumulator (auto switches to the O(1)-memory log histogram at large
// budgets, so -trun 1e7 runs flat in memory). Ctrl-C cancels a running
// campaign mid-flight.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"faultmem/internal/mc"
	"faultmem/internal/sram"
	"faultmem/internal/yield"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "yieldcalc: %v\n", err)
		os.Exit(1)
	}
}

// parseSchemes maps a comma-separated scheme list to typed IDs.
func parseSchemes(list string) ([]yield.SchemeID, error) {
	if list == "all" {
		return yield.AllSchemeIDs(), nil
	}
	var ids []yield.SchemeID
	for _, name := range strings.Split(list, ",") {
		id, err := yield.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func run(ctx context.Context) error {
	rows := flag.Int("rows", 4096, "memory depth in 32-bit words (4096 = 16KB)")
	pcell := flag.Float64("pcell", 5e-6, "bit-cell failure probability (ignored with -sweep)")
	target := flag.Float64("target", 1e6, "MSE quality target (die qualifies if MSE < target)")
	trun := flag.Float64("trun", 0, "Monte-Carlo budget scale (0 = auto: 2e5 single point, 1e6 sweep)")
	seed := flag.Int64("seed", 1, "random seed")
	sweep := flag.Bool("sweep", false, "sweep VDD instead of a single Pcell point")
	minYield := flag.Float64("minyield", 0.999, "yield requirement for the -sweep minimum-VDD report")
	workers := flag.Int("workers", 0, "Monte-Carlo worker goroutines (0 = all cores; results identical for any value)")
	hist := flag.String("hist", "auto", "CDF accumulator: auto|exact|hist (hist = O(1)-memory log histogram)")
	bins := flag.Int("bins", 0, "log-histogram bin count (0 = default)")
	schemeList := flag.String("schemes", "all", "comma-separated scheme IDs (none|nfm1..nfm5|pecc|ecc) or 'all'")
	progress := flag.Bool("progress", false, "report sweep progress on stderr")
	flag.Parse()

	mode, err := yield.ParseAccumMode(*hist)
	if err != nil {
		return err
	}
	ids, err := parseSchemes(*schemeList)
	if err != nil {
		return err
	}

	// One engine pass per operating point: every scheme is scored on the
	// same fault-map samples (common random numbers), so the per-scheme
	// yield columns are directly comparable.
	ys := make([]yield.Scheme, len(ids))
	for i, id := range ids {
		ys[i] = id.Scheme()
	}
	params := func(trun float64) yield.CDFParams {
		return yield.CDFParams{
			Rows: *rows, Width: 32, Pcell: *pcell,
			Trun: trun, MaxPerCount: 10000, Seed: *seed, Workers: *workers,
			Accum: mode, Bins: *bins,
		}
	}
	env := mc.Env{Ctx: ctx}
	if *progress {
		env.OnShard = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if !*sweep {
		budget := *trun
		if budget == 0 {
			budget = 2e5
		}
		fmt.Printf("memory: %d x 32 (%d cells), Pcell=%.3e, target MSE < %.3e\n\n",
			*rows, *rows*32, *pcell, *target)
		results, err := yield.MSECDFAllEnv(env, params(budget), ys)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s  %-14s  %-12s\n", "scheme", "quality yield", "trad. yield")
		trad := results[0].PZeroFailures // zero-failure criterion
		for i, r := range results {
			fmt.Printf("%-16s  %-14.6f  %-12.6f\n", ids[i].Display(), r.YieldAtMSE(*target), trad)
		}
		fmt.Printf("\n(traditional zero-failure yield rejects every die with any fault, Section 2)\n")
		return nil
	}

	budget := *trun
	if budget == 0 {
		budget = 1e6
	}
	model := sram.Default28nm()
	var vdds, pcells []float64
	for v := 0.90; v >= 0.60-1e-9; v -= 0.02 {
		vdds = append(vdds, v)
		pcells = append(pcells, model.Pcell(v))
	}
	// All operating points run concurrently on the engine: one
	// MSECDFAllEnv pass per point, reduced to its per-scheme yield column
	// as it completes (the full accumulators are not retained), merged
	// in point order — the table is identical to a serial sweep at the
	// same seed. Cancellation propagates into every in-flight point.
	points, err := yield.MSECDFSweepMapEnv(env, params(budget), pcells, ys,
		func(_ int, rs []yield.CDFResult) []float64 {
			col := make([]float64, len(rs))
			for i, r := range rs {
				col[i] = r.YieldAtMSE(*target)
			}
			return col
		})
	if err != nil {
		return err
	}

	fmt.Printf("VDD sweep: quality yield at MSE < %.1e for a %d-word memory\n\n", *target, *rows)
	fmt.Printf("%-6s %-10s", "VDD", "Pcell")
	for _, id := range ids {
		fmt.Printf(" %-14s", id.Display())
	}
	fmt.Println()
	minVDD := make(map[yield.SchemeID]float64)
	for vi, v := range vdds {
		fmt.Printf("%-6.2f %-10.2e", v, pcells[vi])
		for i, y := range points[vi] {
			fmt.Printf(" %-14.6f", y)
			if y >= *minYield {
				minVDD[ids[i]] = v // keep lowest passing VDD (loop descends)
			}
		}
		fmt.Println()
	}
	fmt.Printf("\nminimum VDD sustaining yield >= %.4f at MSE < %.1e:\n", *minYield, *target)
	for _, id := range ids {
		if v, ok := minVDD[id]; ok {
			fmt.Printf("  %-16s %.2f V\n", id.Display(), v)
		} else {
			fmt.Printf("  %-16s not reachable in [0.60, 0.90] V\n", id.Display())
		}
	}
	return nil
}
