package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"faultmem/internal/mc"
	"faultmem/internal/workload"
)

// smokeParams returns a tiny-budget params override per experiment so the
// golden smoke test can iterate the whole registry in seconds. Names
// missing from the map run at their registered defaults (already cheap).
func smokeParams() map[string]any {
	fig2 := DefaultFig2Params()
	fig2.ISDirections = 200
	fig5 := DefaultFig5Params()
	fig5.CDF.Trun = 2e3
	fig7 := []Fig7Params{}
	for _, p := range DefaultFig7Suite() {
		p.Trials = 2
		fig7 = append(fig7, p)
	}
	energy := DefaultEnergyParams()
	energy.Dies = 20
	pareto := DefaultParetoParams()
	pareto.CDF.Trun = 2e3
	redundancy := DefaultRedundancyParams()
	redundancy.Dies = 20
	bist := DefaultBISTCoverageParams()
	bist.Trials = 4
	mf := DefaultMultiFaultParams()
	mf.Trials = 100
	tr := DefaultTransientParams()
	tr.Rows = 128
	tr.Reads = 2
	wk := DefaultWorkloadsParams()
	wk.Trials = 2
	wk.Rows = 1024
	wk.Keys = 2048
	wk.Dim = 32
	rec := DefaultRecoveryParams()
	rec.Trials = 2
	rec.Rows = 1024
	rec.Dim = 32
	return map[string]any{
		"fig2":              fig2,
		"fig5":              fig5,
		"fig7":              fig7,
		"workloads":         wk,
		"recovery":          rec,
		"energy":            energy,
		"pareto":            pareto,
		"redundancy":        redundancy,
		"bistcov":           bist,
		"ablate-multifault": mf,
		"ablate-transient":  tr,
	}
}

// TestRegistrySmokeAllExperiments is the golden smoke test of the
// experiment API: every registered experiment must run at a tiny budget,
// render at least one non-empty table, and round-trip its Result through
// JSON deterministically.
func TestRegistrySmokeAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("registry smoke runs every Monte Carlo")
	}
	overrides := smokeParams()
	names := Experiments()
	if len(names) < 16 {
		t.Fatalf("registry holds only %d experiments: %v", len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			if _, ok := Describe(name); !ok {
				t.Fatalf("no description registered for %q", name)
			}
			r := &Runner{Quick: true}
			if p, ok := overrides[name]; ok {
				r.Params = p
			}
			res, err := Run(context.Background(), name, r)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Experiment != name {
				t.Fatalf("result names %q", res.Experiment)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables")
			}
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				t.Fatalf("render: %v", err)
			}
			if buf.Len() == 0 || !strings.Contains(buf.String(), res.Tables[0].Title) {
				t.Fatalf("text rendering empty or missing title:\n%s", buf.String())
			}
			buf.Reset()
			if err := res.RenderCSV(&buf, true); err != nil {
				t.Fatalf("render CSV: %v", err)
			}

			// JSON round trip: encode, decode into the generic Result
			// (params become maps), re-encode twice — the re-encodings
			// must be byte-identical, the deterministic wire contract of
			// the sweep service.
			first, err := res.JSON()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var decoded Result
			if err := json.Unmarshal(first, &decoded); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if decoded.Experiment != name || len(decoded.Tables) != len(res.Tables) {
				t.Fatalf("decoded result lost shape: %+v", decoded)
			}
			second, err := decoded.JSON()
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			var decoded2 Result
			if err := json.Unmarshal(second, &decoded2); err != nil {
				t.Fatalf("re-unmarshal: %v", err)
			}
			third, err := decoded2.JSON()
			if err != nil {
				t.Fatalf("third marshal: %v", err)
			}
			if !bytes.Equal(second, third) {
				t.Fatal("JSON round trip is not deterministic")
			}
		})
	}
}

// TestRegistryMatchesDirectFig5 pins the registry adapter against the
// engine entry point Fig5: bit-identical tables at any worker count
// and under the Runner's seed override.
func TestRegistryMatchesDirectFig5(t *testing.T) {
	p := DefaultFig5Params()
	p.CDF.Trun = 5e3
	direct, err := Fig5(mc.Env{}, p)
	if err != nil {
		t.Fatal(err)
	}
	wantCDF, wantYield := new(bytes.Buffer), new(bytes.Buffer)
	if err := direct.CDFTable().Render(wantCDF); err != nil {
		t.Fatal(err)
	}
	if err := direct.YieldTable().Render(wantYield); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 1, 3} {
		res, err := Run(context.Background(), "fig5", &Runner{Params: p, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tables) != 2 {
			t.Fatalf("workers=%d: %d tables", workers, len(res.Tables))
		}
		got := new(bytes.Buffer)
		if err := res.Tables[0].Render(got); err != nil {
			t.Fatal(err)
		}
		if got.String() != wantCDF.String() {
			t.Fatalf("workers=%d: registry CDF table differs from direct path", workers)
		}
		got.Reset()
		if err := res.Tables[1].Render(got); err != nil {
			t.Fatal(err)
		}
		if got.String() != wantYield.String() {
			t.Fatalf("workers=%d: registry yield table differs from direct path", workers)
		}
	}

	// The Runner's seed override must land exactly where the params seed
	// would.
	seed := int64(42)
	q := p
	q.CDF.Seed = seed
	wantSeeded, err := Fig5(mc.Env{}, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), "fig5", &Runner{Params: p, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	want := new(bytes.Buffer)
	if err := wantSeeded.CDFTable().Render(want); err != nil {
		t.Fatal(err)
	}
	got := new(bytes.Buffer)
	if err := res.Tables[0].Render(got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("seed override via Runner differs from seed via params")
	}
}

// TestRegistryMatchesDirectFig7 extends the bit-identical contract to the
// application-quality campaign through the registry: the tables do not
// depend on the worker count.
func TestRegistryMatchesDirectFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 7 Monte Carlo is slow")
	}
	p := DefaultFig7Params(workload.KNN)
	p.Trials = 3
	var want []string
	for _, workers := range []int{1, 2} {
		res, err := Run(context.Background(), "fig7", &Runner{Params: []Fig7Params{p}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tables) != 2 {
			t.Fatalf("%d tables", len(res.Tables))
		}
		var got []string
		for _, tbl := range res.Tables {
			got = append(got, renderTable(t, tbl))
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: fig7 table %d differs from the 1-worker run", workers, i)
			}
		}
	}
}

// TestRegistryJSONParamsOverride exercises the wire form of parameter
// overrides: raw JSON merged over the defaults.
func TestRegistryJSONParamsOverride(t *testing.T) {
	res, err := Run(context.Background(), "width",
		&Runner{Params: json.RawMessage(`{"Rows": 1024}`)})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res.Params.(WidthParams)
	if !ok || p.Rows != 1024 {
		t.Fatalf("params override did not apply: %+v", res.Params)
	}
	if _, err := Run(context.Background(), "width",
		&Runner{Params: json.RawMessage(`{"Rows": `)}); err == nil {
		t.Fatal("malformed params JSON accepted")
	}
	if _, err := Run(context.Background(), "width",
		&Runner{Params: Fig6Params{}}); err == nil {
		t.Fatal("mistyped params accepted")
	}
}

// TestBadParamsReturnError: params an experiment cannot run come back
// from Run as an error naming them, before any engine run opens — never
// as a panic (which would take `faultmem serve` down with every other
// client's jobs) or an endless failure-count draw.
func TestBadParamsReturnError(t *testing.T) {
	for _, c := range []struct{ name, params string }{
		{"fig2", `{"Step":0}`},
		{"fig2", `{"VMin":1,"VMax":0.6}`},
		{"energy", `{"Dies":0}`},
		{"energy", `{"Rows":0}`},
		{"redundancy", `{"Dies":0}`},
		{"fig6", `{"Rows":0}`},
		{"width", `{"Rows":0}`},
		{"ablate-lut", `{"Rows":0}`},
		{"bistcov", `{"Rows":0}`},
		{"bistcov", `{"Width":65}`},
		{"bistcov", `{"StaticFaults":4097}`},
		{"bistcov", `{"Couplings":4096}`},
		{"ablate-multifault", `{"Trials":0}`},
		{"ablate-transient", `{"Rows":0}`},
		{"ablate-transient", `{"Rates":[2]}`},
		{"ablate-transient", `{"Rates":[-0.5]}`},
		{"ablate-transient", `{"Pcell":2}`},
		{"workloads", `{"Rows":0,"Workloads":["rsort"]}`},
		{"workloads", `{"Trials":0,"Workloads":["rsort"]}`},
		{"workloads", `{"Trials":-3}`},
		{"workloads", `{"Pcell":0,"Workloads":["rsort"]}`},
		{"workloads", `{"Pcell":1,"Workloads":["rsort"]}`},
		{"fig7", `[{"App":4,"Rows":4096,"Pcell":0.001,"Trials":8}]`},
		{"fig7", `[{"App":2,"Rows":4096,"Pcell":0.001,"Trials":0}]`},
		{"recovery", `{"Rows":0}`},
	} {
		r := &Runner{Quick: true, Params: json.RawMessage(c.params), Exec: func(sj mc.ShardJob) (any, error) {
			t.Errorf("%s %s: engine run %q opened", c.name, c.params, sj.Tag)
			return sj.Run(), nil
		}}
		res, err := Run(context.Background(), c.name, r)
		if err == nil || res != nil || !strings.Contains(err.Error(), "params") {
			t.Errorf("%s %s: got result %v, err %v; want an error naming the params", c.name, c.params, res != nil, err)
		}
	}
}

func TestRegistryUnknownExperiment(t *testing.T) {
	_, err := Run(context.Background(), "bogus", nil)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var unknown *ErrUnknownExperiment
	if !errors.As(err, &unknown) {
		t.Fatalf("error type %T", err)
	}
	for _, name := range []string{"fig5", "fig7", "table1"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup accepted unknown name")
	}
}

// TestRegistryProgress asserts shard completions flow through the Runner
// into the caller's callback, ending exactly at done == total.
func TestRegistryProgress(t *testing.T) {
	p := DefaultFig5Params()
	p.CDF.Trun = 2e3
	var mu sync.Mutex
	var events []Progress
	r := &Runner{Params: p, Progress: func(ev Progress) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}
	if _, err := Run(context.Background(), "fig5", r); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if last.Done != last.Total || last.Experiment != "fig5" {
		t.Fatalf("last event %+v", last)
	}
}

// TestRunAllStreamsEveryExperiment drives the registry's streaming
// iteration at smoke budgets (exercised fully by the CLI's `run all`).
func TestRunAllStreamsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Monte Carlo")
	}
	// RunAll cannot take per-experiment overrides, so this uses the Quick
	// tier as the CLI does; keep it to a count check.
	var got []string
	err := RunAll(context.Background(), &Runner{Quick: true}, func(res *Result) error {
		got = append(got, res.Experiment)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Experiments()
	if len(got) != len(want) {
		t.Fatalf("streamed %d of %d experiments", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order differs at %d: %q != %q", i, got[i], want[i])
		}
	}
	if err := RunAll(context.Background(), &Runner{Params: Fig4Params{}}, nil); err == nil {
		t.Fatal("RunAll accepted a params override")
	}
}

// TestFig7CallerSliceUntouched guards the params-override aliasing edge:
// the fig7 adapter must copy a caller-supplied suite before applying the
// Runner's effective settings, so neither the caller's slice nor the
// returned Result.Params can be mutated through the other.
func TestFig7CallerSliceUntouched(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 7 Monte Carlo is slow")
	}
	suite := []Fig7Params{DefaultFig7Params(workload.KNN)}
	res, err := Run(context.Background(), "fig7", &Runner{Quick: true, Params: suite})
	if err != nil {
		t.Fatal(err)
	}
	if suite[0].Trials != 500 {
		t.Fatalf("caller slice mutated: Trials=%d", suite[0].Trials)
	}
	if got := res.Params.([]Fig7Params)[0].Trials; got != QuickFig7Trials {
		t.Fatalf("effective params not recorded: %d", got)
	}
	suite[0].Trials = 7
	if res.Params.([]Fig7Params)[0].Trials == 7 {
		t.Fatal("Result.Params aliases the caller slice")
	}
}
