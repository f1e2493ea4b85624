package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"faultmem/internal/fault"
	"faultmem/internal/mc"
	"faultmem/internal/workload"
	"faultmem/internal/yield"
)

func TestProtectionNamesAndParse(t *testing.T) {
	cases := map[string]Protection{
		"none": ProtNone, "ecc": ProtECC, "pecc": ProtPECC,
		"nfm1": ProtShuffle1, "nfm3": ProtShuffle3, "nfm5": ProtShuffle5,
	}
	for s, want := range cases {
		id, err := yield.ParseScheme(s)
		if err != nil || want.ID() != id {
			t.Errorf("%v.ID() = %v, yield.ParseScheme(%q) = %v, %v", want, want.ID(), s, id, err)
		}
	}
	if _, err := yield.ParseScheme("nfm9"); err == nil {
		t.Error("nfm9 accepted")
	}
	if ProtShuffle3.String() != "nFM=3-Bit" || ProtShuffle3.NFM() != 3 {
		t.Error("shuffle naming wrong")
	}
	if ProtECC.NFM() != 0 {
		t.Error("non-shuffle NFM should be 0")
	}
}

func TestProtectionBuildAllArms(t *testing.T) {
	fm := fault.Map{{Row: 0, Col: 31, Kind: fault.Flip}}
	for _, p := range AllProtections() {
		m, err := p.Build(8, fm)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		m.Write(0, 0xABCD1234)
		_ = m.Read(0)
		if m.Words() != 8 {
			t.Errorf("%v: words %d", p, m.Words())
		}
	}
}

func TestProtectionYieldSchemeConsistentNames(t *testing.T) {
	for _, p := range AllProtections() {
		if got := p.YieldScheme().Name(); got != p.String() {
			t.Errorf("%v: yield scheme name %q != %q", p, got, p.String())
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Notes:  []string{"n1"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T\n=", "a", "bb", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.RenderCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "333,4") {
		t.Errorf("CSV missing row: %s", buf.String())
	}
}

func TestFig2ShapeAndAnchors(t *testing.T) {
	p := DefaultFig2Params()
	p.ISDirections = 4000 // keep the test quick
	rows, err := Fig2Ctx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 15 {
		t.Fatalf("only %d sweep points", len(rows))
	}
	// VDD descending, Pcell ascending.
	for i := 1; i < len(rows); i++ {
		if rows[i].VDD >= rows[i-1].VDD {
			t.Fatal("VDD not descending")
		}
		if rows[i].PcellAnalytic <= rows[i-1].PcellAnalytic {
			t.Fatal("Pcell not increasing as VDD drops")
		}
	}
	// Yield collapse near 0.73 V (§2).
	for _, r := range rows {
		if r.VDD <= 0.731 && r.VDD >= 0.729 && r.ZeroFailYield > 1e-4 {
			t.Errorf("yield at 0.73V = %g, want ~0", r.ZeroFailYield)
		}
	}
	// IS estimates present and within an order of magnitude of analytic
	// at low voltage.
	last := rows[len(rows)-1] // lowest VDD
	if last.PcellIS <= 0 {
		t.Fatal("IS estimate missing")
	}
	ratio := last.PcellIS / last.PcellAnalytic
	if ratio < 0.3 || ratio > 3.5 {
		t.Errorf("IS/analytic ratio %.2f at VDD=%.2f", ratio, last.VDD)
	}
	var buf bytes.Buffer
	if err := Fig2Table(rows).Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig4MatchesPaperProfile(t *testing.T) {
	rows := Fig4()
	if len(rows) != 32 {
		t.Fatalf("%d rows, want 32", len(rows))
	}
	// nFM=5: flat zero; nFM=1: sawtooth b mod 16; no-correction: b.
	for _, r := range rows {
		if r.NoCorrection != r.BitPosition {
			t.Errorf("bit %d: no-correction %d", r.BitPosition, r.NoCorrection)
		}
		if r.Shuffled[4] != 0 {
			t.Errorf("bit %d: nFM=5 exponent %d", r.BitPosition, r.Shuffled[4])
		}
		if r.Shuffled[0] != r.BitPosition%16 {
			t.Errorf("bit %d: nFM=1 exponent %d", r.BitPosition, r.Shuffled[0])
		}
		// Monotone improvement with nFM at the MSB.
		if r.BitPosition == 31 {
			for i := 1; i < 5; i++ {
				if r.Shuffled[i] > r.Shuffled[i-1] {
					t.Error("MSB exponent not improving with nFM")
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := Fig4Table(rows).Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig5EndToEnd(t *testing.T) {
	p := DefaultFig5Params()
	p.CDF.Trun = 1e4 // quick
	res, err := Fig5Env(mc.Env{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDFs) != len(Fig5Arms()) {
		t.Fatalf("%d CDFs", len(res.CDFs))
	}
	// Orderings at a yield target: none worst, nFM=5 best among shuffles.
	var none, s1, s5 yield.CDFResult
	for i, a := range res.Arms {
		switch a {
		case ProtNone:
			none = res.CDFs[i]
		case ProtShuffle1:
			s1 = res.CDFs[i]
		case ProtShuffle5:
			s5 = res.CDFs[i]
		}
	}
	q := 0.9
	if !(s5.MSEAtYield(q) <= s1.MSEAtYield(q) && s1.MSEAtYield(q) < none.MSEAtYield(q)) {
		t.Errorf("MSE ordering violated: none %g, nFM1 %g, nFM5 %g",
			none.MSEAtYield(q), s1.MSEAtYield(q), s5.MSEAtYield(q))
	}
	var buf bytes.Buffer
	if err := res.CDFTable().Render(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := res.YieldTable().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No Correction") {
		t.Error("yield table missing arms")
	}
}

func TestFig6EndToEnd(t *testing.T) {
	res := Fig6(DefaultFig6Params())
	if len(res.Relative) != 7 || len(res.Absolute) != 7 {
		t.Fatalf("table sizes %d/%d", len(res.Relative), len(res.Absolute))
	}
	// Best shuffle must beat P-ECC in all metrics (positive reductions).
	for i, v := range res.PECCBest {
		if v <= 0 {
			t.Errorf("PECCBest[%d] = %.1f%%, want positive", i, v)
		}
	}
	var buf bytes.Buffer
	if err := res.Fig6RelativeTable().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.AbsoluteTable().Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig7SmallRunAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 7 Monte Carlo is slow")
	}
	suite := DefaultFig7Suite()
	for i := range suite {
		suite[i].Trials = 6
	}
	runs, err := qualityRuns("fig7", &Runner{Params: suite})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		app := run.stage.id
		if run.clean <= 0 {
			t.Fatalf("%v: clean metric %g", app, run.clean)
		}
		if len(run.arms) != len(Fig7Arms()) {
			t.Fatalf("%v: %d arms", app, len(run.arms))
		}
		for _, arm := range run.arms {
			if len(arm.Qualities) != 6 {
				t.Fatalf("%v %v: %d qualities", app, arm.Scheme, len(arm.Qualities))
			}
			for _, q := range arm.Qualities {
				if q < 0 || q > 1 {
					t.Fatalf("%v %v: quality %g outside [0,1]", app, arm.Scheme, q)
				}
			}
		}
	}
	res, err := Run(context.Background(), "fig7", &Runner{Params: suite})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2*len(suite) {
		t.Fatalf("%d tables, want a CDF and a summary per app", len(res.Tables))
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig7ShuffleBeatsNoProtection(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 7 Monte Carlo is slow")
	}
	// The KNN benchmark is the cheapest: verify the central qualitative
	// claim of Fig. 7 — bit-shuffling preserves far more quality than no
	// protection under the same fault prior.
	p := DefaultFig7Params(workload.KNN)
	p.Trials = 12
	res := fig7Run(t, p)
	byScheme := map[Protection]QualityArm{}
	for _, a := range res.arms {
		byScheme[a.Scheme] = a
	}
	none := byScheme[ProtNone].Mean()
	s1 := byScheme[ProtShuffle1].Mean()
	s2 := byScheme[ProtShuffle2].Mean()
	if s1 <= none {
		t.Errorf("nFM=1 mean quality %.3f not above unprotected %.3f", s1, none)
	}
	if s2 < 0.95 {
		t.Errorf("nFM=2 mean quality %.3f, want near 1", s2)
	}
}

func TestFig7Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 7 Monte Carlo is slow")
	}
	p := DefaultFig7Params(workload.KNN)
	p.Trials = 4
	a, b := fig7Run(t, p), fig7Run(t, p)
	for i := range a.arms {
		for j := range a.arms[i].Qualities {
			if a.arms[i].Qualities[j] != b.arms[i].Qualities[j] {
				t.Fatal("Fig7 not deterministic")
			}
		}
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CleanMetric <= 0 || r.CleanMetric > 1 {
			t.Errorf("%s: clean metric %g", r.Algorithm, r.CleanMetric)
		}
		if r.Samples == 0 || r.Features == 0 {
			t.Errorf("%s: shape %dx%d", r.Algorithm, r.Samples, r.Features)
		}
	}
	var buf bytes.Buffer
	if err := Table1Table(rows).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Elasticnet") {
		t.Error("table missing Elasticnet row")
	}
}

// TestAppParsing pins fig7's App field: the wire integers 0, 1 and 2
// name the elasticnet, PCA and KNN benchmarks (their workload.ID
// values) and the stages named after them, and fig7 refuses every
// other ID before any engine run.
func TestAppParsing(t *testing.T) {
	ps, stages, err := fig7Experiment{}.plan(&Runner{Params: json.RawMessage(`[{"App":0},{"App":1},{"App":2}]`)})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"elasticnet", "pca", "knn"} {
		if ps[i].App.String() != want || stages[i].name != want {
			t.Errorf("App %d parsed as %v (stage %q), want %s", i, ps[i].App, stages[i].name, want)
		}
	}
	if ps[1].App.Metric() != "Explained Variance" {
		t.Error("metric name wrong")
	}
	for _, app := range []int{-1, int(workload.RSort), int(workload.CGSolve), int(workload.CGRestart), 99} {
		r := &Runner{Params: json.RawMessage(fmt.Sprintf(`[{"App":%d}]`, app))}
		if _, _, err := (fig7Experiment{}).plan(r); err == nil {
			t.Errorf("fig7 accepted App %d", app)
		}
	}
}
