package exp

import (
	"bytes"
	"context"
	"testing"
)

func TestBISTCoverageHierarchy(t *testing.T) {
	p := DefaultBISTCoverageParams()
	p.Trials = 25
	rows, err := BISTCoverage(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]BISTCoverageRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	// Static faults: always fully located (every algorithm reads both
	// backgrounds at every cell).
	for _, r := range rows {
		if r.StaticCoverage != 1 {
			t.Errorf("%s static coverage %.3f, want 1.0", r.Algorithm, r.StaticCoverage)
		}
	}
	// Coupling faults: the classic March cost/coverage hierarchy.
	zo := byName["Zero-One"].VictimCoverage
	mats := byName["MATS+"].VictimCoverage
	mc := byName["March C-"].VictimCoverage
	mb := byName["March B"].VictimCoverage
	if !(zo < mats && mats < mc) {
		t.Errorf("coverage hierarchy violated: ZeroOne %.3f, MATS+ %.3f, MarchC- %.3f", zo, mats, mc)
	}
	if mc < 0.95 {
		t.Errorf("March C- coupling coverage %.3f, want near 1", mc)
	}
	if mb < mc-0.05 {
		t.Errorf("March B coverage %.3f well below March C- %.3f", mb, mc)
	}
	if zo > 0.6 {
		t.Errorf("Zero-One coverage %.3f implausibly high", zo)
	}
	var buf bytes.Buffer
	if err := BISTCoverageTable(rows, p).Render(&buf); err != nil {
		t.Fatal(err)
	}
}
