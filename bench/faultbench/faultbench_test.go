package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"faultmem/internal/workload"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadBenchmark(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestMetricListsMatchBenchmark pins the metric and workload names this
// program prints to the lists in BENCHMARK.json.
func TestMetricListsMatchBenchmark(t *testing.T) {
	sp := loadBenchmark(t)
	check := func(kind string, defs []metricDef, listed []specMetric) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(listed))
		}
		for i := range min(len(defs), len(listed)) {
			if defs[i].name != listed[i].Name || defs[i].unit != listed[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					kind, i, defs[i].name, defs[i].unit, listed[i].Name, listed[i].Unit)
			}
		}
		for _, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s metric name %q has characters outside [A-Za-z0-9_.-]", kind, d.name)
			}
		}
	}
	check("end_to_end", endToEnd, sp.EndToEnd)
	check("per_layer", perLayer, sp.PerLayer)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range benchWorkloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %v", i, w.name, names)
		}
	}
}

// TestSmoke runs every workload with a near-empty window through the
// child roles and the merge, and checks that the printed metrics are
// exactly BENCHMARK.json's lists, all finite, with no failed operation
// and a trace file from every traced run.
// -short skips the traced runs.
func TestSmoke(t *testing.T) {
	sp := loadBenchmark(t)
	modes := []int{0, 1}
	if testing.Short() {
		modes = modes[:1]
	}
	for _, w := range benchWorkloads {
		for _, trace := range modes {
			o := options{workload: w.name, seed: 3, seconds: 0.001, trace: trace, traceDir: t.TempDir()}
			want := sp.EndToEnd
			if trace == 1 {
				want = sp.PerLayer
			}
			var reps []*report
			for _, role := range o.roles() {
				rep, err := runRole(context.Background(), o, role)
				if err != nil {
					t.Fatalf("%s %s: %v", w.name, role, err)
				}
				reps = append(reps, rep)
			}
			var out bytes.Buffer
			if err := printResult(&out, o, reps); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not JSON: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			var got, names []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: %s = %v", w.name, trace, name, m.Value)
				}
			}
			for _, m := range want {
				names = append(names, m.Name)
			}
			slices.Sort(got)
			slices.Sort(names)
			if !slices.Equal(got, names) {
				t.Errorf("%s trace=%d: printed metrics %v, want %v", w.name, trace, got, names)
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(o.traceDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

// TestCorruptedRepetitionCounted injects a result that differs from the
// first repetition and checks that it is counted as a failed operation.
func TestCorruptedRepetitionCounted(t *testing.T) {
	calls := 0
	run := func(context.Context) ([]byte, error) {
		calls++
		time.Sleep(5 * time.Millisecond)
		if calls == 3 {
			return []byte(`{"experiment":"fig5","tables":[]}`), nil
		}
		return []byte(`{"experiment":"fig5","tables":[{}]}`), nil
	}
	rep := measureBatch(context.Background(), run, 10, 50*time.Millisecond, false)
	rep.Role = "measure"
	if len(rep.Failures) != 1 {
		t.Fatalf("failures %q, want exactly the corrupted repetition", rep.Failures)
	}
	res, _ := merge(options{workload: "fig5-engine", trace: 0}, []*report{rep})
	if res.Correct || res.Failed != 1 || res.Attempted != calls {
		t.Errorf("merged correct=%v failed=%d attempted=%d (runs %d)", res.Correct, res.Failed, res.Attempted, calls)
	}
}

// TestServedMismatchCounted checks that a served final differing from
// its local run by one byte is a failure.
func TestServedMismatchCounted(t *testing.T) {
	ctx := context.Background()
	c := campaign{experiment: "fig5", quick: true, seed: 5}
	good, err := c.runLocal(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(good)
	bad[len(bad)/2] ^= 1
	rep := &report{}
	checkServed(ctx, rep, []*submission{{c: c, result: good}, {c: c, result: bad}}, []int{0, 1})
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "submission 1") {
		t.Errorf("failures %q, want one for submission 1", rep.Failures)
	}
}

// TestDigestDisagreementCounted checks that children disagreeing on the
// result digest fail the run.
func TestDigestDisagreementCounted(t *testing.T) {
	reps := []*report{
		{Role: "setup", Digest: "aa", Attempted: 1, SetupS: 1},
		{Role: "measure", Digest: "bb", Attempted: 3, SetupS: 1, TrialsPerCPUS: 5, LatencyS: []float64{1, 2}, PeakRSSMiB: 9},
	}
	res, _ := merge(options{workload: "fig5-engine"}, reps)
	if res.Correct || res.Failed != 1 {
		t.Errorf("correct=%v failed=%d, want one failure", res.Correct, res.Failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1.5, 9}, 1.25, 6.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name         string
		base, change []float64
		better       string
		bound        float64
		verdict      string
	}{
		{"gain", steady, scale(steady, 1.2), "higher", 0.1, verdictGain},
		{"regression", steady, scale(steady, 0.8), "higher", 0.1, verdictRegressed},
		{"lower is better", steady, scale(steady, 1.2), "lower", 0.1, verdictRegressed},
		{"small shift", steady, scale(steady, 1.02), "higher", 0.1, verdictSame},
		{"too few pairs", steady[:5], scale(steady[:5], 1.2), "higher", 0.1, verdictSame},
		{"noisy", noisy, scale(noisy, 0.95), "higher", 0.1, verdictUnresolved},
		{"no bound", steady, steady, "lower", 0, verdictNoBound},
	} {
		if v, _, _ := judge(tc.base, tc.change, tc.better, tc.bound); v != tc.verdict {
			t.Errorf("%s: verdict %q, want %q", tc.name, v, tc.verdict)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mc.shard", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "mc.shard", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "mc.shard", Start: 70, End: 80},
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 50, 2: 20, 3: 20, 4: 10, 5: 10} {
		if got := float64(self[id]) / 1e3; math.Abs(got-want) > 1e-9 {
			t.Errorf("span %d self time %vus, want %vus", id, got, want)
		}
	}
}

// TestCgrestartSeedSkipsUnsolvable checks that a seed whose cgrestart
// system the workload refuses is replaced by one it accepts, and that a
// seed it accepts is kept.
func TestCgrestartSeedSkipsUnsolvable(t *testing.T) {
	wl, err := workload.CGRestart.Workload()
	if err != nil {
		t.Fatal(err)
	}
	const refused = 1937576819
	if _, err := wl.Prepare(workload.Params{Seed: refused}); err == nil {
		t.Skipf("seed %d now prepares; pick another refused seed", refused)
	}
	s := cgrestartSeed(refused)
	if s == refused {
		t.Fatalf("cgrestartSeed kept the refused seed %d", refused)
	}
	if _, err := wl.Prepare(workload.Params{Seed: s}); err != nil {
		t.Errorf("seed %d chosen for %d: %v", s, refused, err)
	}
	if s2 := cgrestartSeed(refused); s2 != s {
		t.Errorf("two draws of seed %d chose %d and %d", refused, s, s2)
	}
	if s := cgrestartSeed(1); s != 1 {
		t.Errorf("cgrestartSeed(1) = %d, want the accepted seed kept", s)
	}
}

func TestMixCampaigns(t *testing.T) {
	const n = 4*mixBlock + 3
	a, b := mixCampaigns(9, n), mixCampaigns(9, n)
	if !slices.Equal(a, b) {
		t.Fatal("two draws of one seed differ")
	}
	counts := map[string]int{}
	for _, c := range a[:n/mixBlock*mixBlock] {
		counts[c.experiment]++
	}
	blocks := n / mixBlock
	want := map[string]int{"fig5": 2 * blocks, "recovery": blocks, "workloads": blocks, "fig7": blocks}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("%s submitted %d times in %d full blocks, want %d", k, counts[k], blocks, v)
		}
	}
}
