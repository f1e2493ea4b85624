package exp

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"faultmem/internal/mc"
)

// renderTable renders a table to text for byte-level comparison.
func renderTable(t *testing.T, tbl *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// smokeWorkloadsParams returns a small-budget campaign config covering
// the two non-ML workloads (the ML trio's engine path is pinned by the
// fig7 golden-equivalence test).
func smokeWorkloadsParams() WorkloadsParams {
	p := DefaultWorkloadsParams()
	p.Workloads = []string{"rsort", "cgsolve"}
	p.Trials = 4
	p.Rows = 512
	p.Keys = 1024
	p.Dim = 24
	return p
}

// TestWorkloadsWorkerCountInvariance extends the engine's determinism
// contract to the new workload family: one RNG stream per trial, so
// the quality samples are bit-identical for any worker count.
func TestWorkloadsWorkerCountInvariance(t *testing.T) {
	p := smokeWorkloadsParams()
	run := func(workers int) []qualityRun {
		q := p
		q.Workers = workers
		runs, err := qualityRuns("workloads", &Runner{Params: q})
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	ref := run(1)
	if len(ref) != 2 {
		t.Fatalf("%d runs, want 2", len(ref))
	}
	for _, w := range []int{3, runtime.GOMAXPROCS(0)} {
		got := run(w)
		for ri := range ref {
			a, b := ref[ri], got[ri]
			if a.stage.id != b.stage.id || math.Float64bits(a.clean) != math.Float64bits(b.clean) {
				t.Fatalf("workers=%d run %d: identity drifted (%v/%g vs %v/%g)",
					w, ri, a.stage.id, a.clean, b.stage.id, b.clean)
			}
			for ai := range a.arms {
				aq, bq := a.arms[ai].Qualities, b.arms[ai].Qualities
				if len(aq) != len(bq) {
					t.Fatalf("workers=%d %v arm %v: %d samples != %d",
						w, a.stage.id, a.arms[ai].Scheme, len(bq), len(aq))
				}
				for qi := range aq {
					if math.Float64bits(aq[qi]) != math.Float64bits(bq[qi]) {
						t.Fatalf("workers=%d %v arm %v sample %d: %v != %v",
							w, a.stage.id, a.arms[ai].Scheme, qi, bq[qi], aq[qi])
					}
				}
			}
		}
	}
}

// TestWorkloadsAllArms pins the campaign's arm coverage: every
// registered protection scheme appears, in AllProtections order, with a
// full quality sample.
func TestWorkloadsAllArms(t *testing.T) {
	p := smokeWorkloadsParams()
	p.Workloads = []string{"rsort"}
	runs, err := qualityRuns("workloads", &Runner{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	want := AllProtections()
	arms := runs[0].arms
	if len(arms) != len(want) {
		t.Fatalf("%d arms, want %d", len(arms), len(want))
	}
	for i, a := range arms {
		if a.Scheme != want[i] {
			t.Errorf("arm %d is %v, want %v", i, a.Scheme, want[i])
		}
		if len(a.Qualities) != p.Trials {
			t.Errorf("arm %v holds %d samples, want %d", a.Scheme, len(a.Qualities), p.Trials)
		}
		for _, q := range a.Qualities {
			if q < 0 || q > 1 || math.IsNaN(q) {
				t.Errorf("arm %v quality %v outside [0,1]", a.Scheme, q)
			}
		}
	}
}

// TestWorkloadsParamValidation pins the campaign's input contract on
// the registry path that `faultmem run`, serve and sweep workers share:
// unknown and duplicate workload names, and degenerate Monte-Carlo
// geometry (which would spin the failure-count draw or leave an arm
// without samples), fail loudly before any engine run.
func TestWorkloadsParamValidation(t *testing.T) {
	for name, mutate := range map[string]func(*WorkloadsParams){
		"unknown workload":   func(p *WorkloadsParams) { p.Workloads = []string{"bogus"} },
		"duplicate workload": func(p *WorkloadsParams) { p.Workloads = []string{"rsort", "rsort"} },
		"zero trials":        func(p *WorkloadsParams) { p.Trials = 0 },
		"zero rows":          func(p *WorkloadsParams) { p.Rows = 0 },
		"Pcell=0":            func(p *WorkloadsParams) { p.Pcell = 0 },
		"Pcell=1":            func(p *WorkloadsParams) { p.Pcell = 1 },
	} {
		p := smokeWorkloadsParams()
		mutate(&p)
		r := &Runner{Params: p, Exec: func(sj mc.ShardJob) (any, error) {
			t.Errorf("%s: engine run %q opened", name, sj.Tag)
			return sj.Run(), nil
		}}
		if _, err := Run(context.Background(), "workloads", r); err == nil {
			t.Errorf("%s: params accepted", name)
		}
	}
}

// TestWorkloadsRegistryMatchesDirect pins the registry adapter: one CDF
// and one summary table per workload, and the -quick clamp lands on
// QuickWorkloadsTrials.
func TestWorkloadsRegistryMatchesDirect(t *testing.T) {
	p := smokeWorkloadsParams()
	res, err := Run(context.Background(), "workloads", &Runner{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2*len(p.Workloads) {
		t.Fatalf("%d tables, want %d", len(res.Tables), 2*len(p.Workloads))
	}

	quick := p
	quick.Trials = QuickWorkloadsTrials + 100
	res, err = Run(context.Background(), "workloads", &Runner{Params: quick, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Params.(WorkloadsParams).Trials; got != QuickWorkloadsTrials {
		t.Fatalf("quick tier ran %d trials, want %d", got, QuickWorkloadsTrials)
	}
}
