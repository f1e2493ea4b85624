package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json that compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// savedRun is one run's standard output, saved to a file.
type savedRun struct {
	path     string
	workload string
	seed     string
	trace    string
	digest   string
	res      result
}

// parseRun reads the header, digest and final JSON lines of a run's
// output.
func parseRun(path string, b []byte) (savedRun, error) {
	r := savedRun{path: path}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if rest, ok := strings.CutPrefix(line, "faultbench "); ok {
			for _, kv := range strings.Fields(rest) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					r.workload = v
				case "seed":
					r.seed = v
				case "trace":
					r.trace = v
				}
			}
		}
		if d, ok := strings.CutPrefix(line, "digest "); ok {
			r.digest = d
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.workload == "" {
		return r, fmt.Errorf("%s: no faultbench header line", path)
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return r, fmt.Errorf("%s: last line is not the result JSON: %w", path, err)
	}
	return r, nil
}

// loadRuns reads every regular file of dir, in name order — the order
// the runs were made in when their names carry a sequence number.
func loadRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r, err := parseRun(path, b)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", dir)
	}
	return runs, nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictGain       = "gain"
	verdictSame       = "within bound"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictNoBound    = "-"
)

// minPairs is the fewest pairs a gain may be claimed on.
const minPairs = 10

// judge applies the acceptance rule to one metric: the change regresses
// when its median is worse than the base median by more than bound (a
// share of the base median); it is unresolved when either side's spread
// (quartile distance over median) exceeds the bound, unless every change
// run beats every base run; it is a gain only over at least minPairs
// pairs, with the change winning nine in ten and the medians differing
// by more than the base's quartile distance. Pairs are (base[i],
// change[i]); ties count for neither side.
func judge(base, change []float64, better string, bound float64) (verdict string, wins, pairs int) {
	sign := 1.0 // +1 when higher is better
	if better == "lower" {
		sign = -1
	}
	pairs = min(len(base), len(change))
	for i := range pairs {
		if sign*(change[i]-base[i]) > 0 {
			wins++
		}
	}
	if bound <= 0 {
		return verdictNoBound, wins, pairs
	}
	mb, mc := median(base), median(change)
	b1, b3 := quartiles(base)
	c1, c3 := quartiles(change)
	spread := max((b3-b1)/math.Abs(mb), (c3-c1)/math.Abs(mc))
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) <= 0 {
				allBetter = false
			}
		}
	}
	worse := -sign * (mc - mb) / math.Abs(mb)
	switch {
	case spread > bound && !allBetter:
		return verdictUnresolved, wins, pairs
	case worse > bound:
		return verdictRegressed, wins, pairs
	case worse < 0 && pairs >= minPairs && wins*10 >= 9*pairs && math.Abs(mc-mb) > b3-b1:
		return verdictGain, wins, pairs
	}
	return verdictSame, wins, pairs
}

// compareMain is `faultbench compare base/ change/`: one row per
// (workload, metric) with each side's median and quartiles, the pair
// wins and the verdict, plus a flag wherever same-seed result digests
// differ (the simulated statistics changed). It fails when a metric
// regressed or a digest changed.
func compareMain(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("faultbench compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: faultbench compare [-benchmark BENCHMARK.json] base/ change/")
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := loadRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1 q3]\tchange median [q1 q3]\tdelta\twins\tverdict")
	bad := 0
	for _, wl := range sp.Workloads {
		for _, mode := range []struct {
			trace   string
			metrics []specMetric
		}{{"0", sp.EndToEnd}, {"1", sp.PerLayer}} {
			bs, cs := selectRuns(base, wl.Name, mode.trace), selectRuns(change, wl.Name, mode.trace)
			if len(bs) == 0 || len(cs) == 0 {
				continue
			}
			for _, m := range mode.metrics {
				bv, cv := values(bs, m.Name), values(cs, m.Name)
				if len(bv) == 0 || len(cv) == 0 {
					continue
				}
				v, wins, pairs := judge(bv, cv, m.Better, m.Bound)
				if v == verdictRegressed {
					bad++
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%d/%d\t%s\n", wl.Name, m.Name, m.Unit,
					summary(bv), summary(cv), delta(median(bv), median(cv)), wins, pairs, v)
			}
			for i := range min(len(bs), len(cs)) {
				b, c := bs[i], cs[i]
				if b.seed == c.seed && b.digest != c.digest {
					bad++
					fmt.Fprintf(tw, "%s\tdigest\t-\t%.12s\t%.12s\t-\t-\tSIMULATED STATISTICS CHANGED (seed %s: %s vs %s)\n",
						wl.Name, b.digest, c.digest, b.seed, b.path, c.path)
				}
			}
			for _, r := range append(slices.Clone(bs), cs...) {
				if !r.res.Correct {
					bad++
					fmt.Fprintf(tw, "%s\tcorrect\t-\t-\t-\t-\t-\tFAILED RUN %s (%d of %d operations failed)\n",
						wl.Name, r.path, r.res.Failed, r.res.Attempted)
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, failed or changed the simulated statistics", bad)
	}
	return nil
}

func selectRuns(runs []savedRun, workload, trace string) []savedRun {
	var out []savedRun
	for _, r := range runs {
		if r.workload == workload && r.trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []savedRun, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.res.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// delta is the change's median relative to the base's, as a signed
// percentage ("-" when the base median is 0).
func delta(base, change float64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.2f%%", 100*(change-base)/math.Abs(base))
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g %.5g] n=%d", median(xs), q1, q3, len(xs))
}
