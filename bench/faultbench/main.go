// Command faultbench is the repository's benchmark. It runs one
// workload — a batch campaign repeated back to back, or a mix of small
// campaigns served two at a time — in child processes of its own,
// checks every result, and prints each metric with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced child reports the per-layer ones and writes its spans
// to <trace-dir>/trace-<workload>.json.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload fig5-engine --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare base/ change/
//
// bench/README.md describes the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"faultmem/internal/exp"
)

// benchWorkload is one workload: a batch campaign, or (batch == nil)
// the served mix.
type benchWorkload struct {
	name  string
	batch func(seed int64) campaign
}

var benchWorkloads = []benchWorkload{
	{"fig5-engine", fig5Engine},
	{"fig7-ml", fig7ML},
	{"recovery-mem", recoveryMem},
	{"serve-mix", nil},
}

// batchCampaign returns the workload's campaign maker (nil for the
// served mix or an unknown name).
func batchCampaign(name string) func(int64) campaign {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w.batch
		}
	}
	return nil
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics. Times are CPU time of the
// measuring process (see cpuTime).
var endToEnd = []metricDef{
	{"trials_per_cpu_s", "1/cpu_s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer lists the traced run's metrics in print order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"mc.shard_ms_p50", "ms"},
		{"mc.shard_ms_p90", "ms"},
		{"mc.idle_frac", "frac"},
		{"mc.shards_per_campaign", "count"},
		{"exp.serial_ms", "ms"},
		{"sweep.gob_us_per_shard", "us"},
		{"sweep.gob_kib_per_shard", "KiB"},
		{"yield.draw_ns", "ns"},
		{"yield.rowmse_ns", "ns"},
		{"stats.add_ns", "ns"},
		{"yield.rows_per_die", "count"},
		{"fault.draw_us", "us"},
		{"mem.reset_us", "us"},
	}
	for _, a := range exp.AllProtections() {
		defs = append(defs, metricDef{"memstore.trip_us." + a.ID().String(), "us"})
	}
	defs = append(defs, metricDef{"memstore.policy_trip_us.none", "us"})
	for _, p := range probePolicies {
		defs = append(defs, metricDef{"memstore.policy_trip_us." + p.name, "us"})
	}
	defs = append(defs,
		metricDef{"recovery.flagged", "count"},
		metricDef{"recovery.retries", "count"},
		metricDef{"recovery.restored", "count"},
		metricDef{"recovery.budget_denied", "count"},
		metricDef{"recovery.recovered_ratio", "frac"},
	)
	for _, id := range probeApps {
		defs = append(defs, metricDef{"workload.app_ms." + id.String(), "ms"})
	}
	for _, id := range probeApps {
		defs = append(defs, metricDef{"workload.prepare_ms." + id.String(), "ms"})
	}
	return append(defs,
		metricDef{"workload.cache_hit_ratio", "frac"},
		metricDef{"sweep.remote_shard_frac", "frac"},
		metricDef{"sweep.reassigned", "count"},
		metricDef{"sweep.frames_rejected", "count"},
		metricDef{"sweep.wire_kib_per_shard", "KiB"},
		metricDef{"serve.latency_ms_p50", "ms"},
		metricDef{"serve.latency_ms_p90", "ms"},
		metricDef{"serve.submit_ms_p50", "ms"},
		metricDef{"serve.queue_ms_p50", "ms"},
		metricDef{"serve.queue_ms_p90", "ms"},
		metricDef{"serve.run_ms_p50", "ms"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}()

// setupChildren is how many extra children only set up, so setup_s is
// the median of setupChildren+1 cold starts.
const setupChildren = 2

// runDeadline bounds a whole run, children included.
const runDeadline = 170 * time.Second

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(os.Stdout, args[1:])
	case len(args) > 0 && args[0] == "child":
		err = childMain(args[1:])
	default:
		err = runMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultbench:", err)
		os.Exit(1)
	}
}

// options are the run flags, shared by the parent and its children.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is drawn from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced child and reports per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build", "directory the traced run writes trace-<workload>.json to")
}

func (o *options) check() error {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	if !slices.Contains(names, o.workload) {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	return nil
}

// roles lists the children of one run, in the order they run.
func (o *options) roles() []string {
	if o.trace == 1 {
		return []string{"trace"}
	}
	return append(slices.Repeat([]string{"setup"}, setupChildren), "measure")
}

func (o *options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func (o *options) args() []string {
	return []string{
		"--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(o.trace),
		"--trace-dir", o.traceDir,
	}
}

func parseRunFlags(name string, args []string, extra func(*flag.FlagSet)) (options, error) {
	var o options
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	o.register(fs)
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	return o, o.check()
}

// runMain is the parent: it spawns the children of one run, merges
// their reports and prints the result.
func runMain(args []string) error {
	o, err := parseRunFlags("faultbench", args, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var reps []*report
	for _, role := range o.roles() {
		rep, err := spawn(ctx, o, role)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
	}
	return printResult(os.Stdout, o, reps)
}

// spawn runs one child of this binary and decodes its report.
func spawn(ctx context.Context, o options, role string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, append([]string{"child", "--role", role}, o.args()...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", role, err)
	}
	var rep report
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("%s child report: %w", role, err)
	}
	return &rep, nil
}

// childMain runs one child role and writes its report to stdout.
func childMain(args []string) error {
	var role string
	o, err := parseRunFlags("faultbench child", args, func(fs *flag.FlagSet) {
		fs.StringVar(&role, "role", "", "setup, measure or trace")
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	rep, err := runRole(ctx, o, role)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runRole runs one child role in this process: "setup" stops after the
// first result, "measure" runs the timed window, "trace" runs the traced
// run and writes its spans.
func runRole(ctx context.Context, o options, role string) (*report, error) {
	var rep *report
	var err error
	switch role {
	case "setup", "measure":
		if b := batchCampaign(o.workload); b != nil {
			c := b(o.seed)
			run := func(ctx context.Context) ([]byte, error) { return c.runLocal(ctx, nil) }
			rep = measureBatch(ctx, run, c.dies, o.window(), role == "setup")
		} else {
			rep, err = measureServeMix(ctx, o.seed, o.window(), role == "setup")
		}
	case "trace":
		var spans []span
		if rep, spans, err = traceRun(ctx, o.workload, o.seed, o.window()); err != nil {
			return nil, err
		}
		path, err := writeTrace(o.traceDir, o.workload, o.seed, spans)
		if err != nil {
			return nil, err
		}
		rep.note("trace written to %s (%d spans)", path, len(spans))
	default:
		err = fmt.Errorf("unknown child role %q", role)
	}
	if err != nil {
		return nil, err
	}
	rep.Role = role
	return rep, nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// merge folds a run's child reports into the result: operation counts
// and failures from every child, the digest agreement across children,
// setup_s as the median cold start, and the rest from the measuring or
// tracing child.
func merge(o options, reps []*report) (result, []string) {
	res := result{Metrics: map[string]metricValue{}}
	var lines, failures []string
	var setups []float64
	var primary *report
	for _, r := range reps {
		res.Attempted += r.Attempted
		failures = append(failures, r.Failures...)
		setups = append(setups, r.SetupS)
		if r.Role != "setup" {
			primary = r
		}
	}
	for _, r := range reps {
		if r.Digest != "" && primary.Digest != "" && r.Digest != primary.Digest {
			failures = append(failures, fmt.Sprintf("%s child result sha256 %s differs from the %s child's %s",
				r.Role, r.Digest, primary.Role, primary.Digest))
		}
	}
	lines = append(lines, fmt.Sprintf("faultbench workload=%s seed=%d seconds=%g trace=%d",
		o.workload, o.seed, o.seconds, o.trace))
	if primary.Digest != "" {
		lines = append(lines, "digest "+primary.Digest)
	}
	set := func(d metricDef, v float64, detail string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			failures = append(failures, fmt.Sprintf("metric %s was not measured", d.name))
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		lines = append(lines, fmt.Sprintf("metric %-36s %14.6g %-8s %s", d.name, v, d.unit, detail))
	}
	if o.trace == 1 {
		for _, d := range perLayer {
			v, ok := primary.Layers[d.name]
			if !ok {
				v = math.NaN()
			}
			set(d, v, "")
		}
	} else {
		unit, how := "repetitions", "median over"
		if batchCampaign(o.workload) == nil {
			unit, how = "submissions", "window of"
		}
		n := len(primary.LatencyS)
		tps := math.NaN()
		if primary.TrialsPerCPUS > 0 {
			tps = primary.TrialsPerCPUS
		}
		set(endToEnd[0], tps, fmt.Sprintf("(%s n=%d %s)", how, n, unit))
		q1, q3 := quartiles(setups)
		set(endToEnd[1], median(setups), fmt.Sprintf("(CPU to first result, median of n=%d cold starts, quartiles %.4g..%.4g)", len(setups), q1, q3))
		rss := "(median peak resident set of one repetition)"
		if batchCampaign(o.workload) == nil {
			rss = fmt.Sprintf("(median peak resident set of %v intervals)", rssInterval)
		}
		set(endToEnd[2], primary.PeakRSSMiB, rss)
		if n > 0 {
			lines = append(lines, fmt.Sprintf("wall time (not gated): %.6g trials/s, latency p50 %.4g s, p90 %.4g s over n=%d %s",
				primary.TrialsPerS, quantile(primary.LatencyS, 0.5), quantile(primary.LatencyS, 0.9), n, unit))
		}
	}
	for _, r := range reps {
		lines = append(lines, r.Notes...)
	}
	for _, f := range failures {
		lines = append(lines, "FAILED "+f)
	}
	res.Failed = min(len(failures), res.Attempted)
	res.Correct = len(failures) == 0
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	return res, lines
}

func printResult(w io.Writer, o options, reps []*report) error {
	if len(reps) == 0 {
		return errors.New("no child reports")
	}
	res, lines := merge(o, reps)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
