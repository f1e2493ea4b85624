package yield

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"faultmem/internal/mc"
	"faultmem/internal/stats"
)

func TestMSECDFAllEnvRejectsBadParams(t *testing.T) {
	// Every one of these used to panic inside the engine (or deep in a
	// shard), taking a long-lived server down with it.
	cases := map[string]func(*CDFParams){
		"Trun 0":        func(p *CDFParams) { p.Trun = 0 },
		"Trun negative": func(p *CDFParams) { p.Trun = -1 },
		"Trun NaN":      func(p *CDFParams) { p.Trun = math.NaN() },
		"Trun +Inf":     func(p *CDFParams) { p.Trun = math.Inf(1) },
		"Trun huge":     func(p *CDFParams) { p.Trun = 1e300; p.MaxPerCount = 0 },
		"Rows 0":        func(p *CDFParams) { p.Rows = 0 },
		"Rows negative": func(p *CDFParams) { p.Rows = -4 },
		"Rows over cap": func(p *CDFParams) { p.Rows = maxCDFRows + 1 },
		"Rows huge":     func(p *CDFParams) { p.Rows = 10_000_000_000 },
		"exact over cap": func(p *CDFParams) {
			p.Accum = AccumExact
			p.Trun = 1e9
			p.MaxPerCount = 0
		},
		"Width 0":          func(p *CDFParams) { p.Width = 0 },
		"Width 65":         func(p *CDFParams) { p.Width = 65 },
		"Pcell NaN":        func(p *CDFParams) { p.Pcell = math.NaN() },
		"Pcell 2":          func(p *CDFParams) { p.Pcell = 2 },
		"MaxFailures huge": func(p *CDFParams) { p.MaxFailures = p.Cells() + 1 },
		"Shards negative":  func(p *CDFParams) { p.Shards = -1 },
		"Bins over cap":    func(p *CDFParams) { p.Bins = stats.MaxLogHistBins + 1 },
		"Bins negative":    func(p *CDFParams) { p.Bins = -1 },
	}
	for name, corrupt := range cases {
		p := DefaultCDFParams()
		p.Trun = 1e3
		corrupt(&p)
		rs, err := MSECDFAllEnv(mc.Env{}, p, fig5Schemes())
		if err == nil || rs != nil {
			t.Errorf("%s: got %d results, err %v; want an error", name, len(rs), err)
		}
	}
	if _, err := MSECDFAllEnv(mc.Env{}, DefaultCDFParams(), nil); err == nil {
		t.Error("no schemes: want an error")
	}
	// The cap itself is a valid geometry.
	p := DefaultCDFParams()
	p.Trun = 1e3
	p.Accum = AccumHist
	p.Bins = stats.MaxLogHistBins
	p.Shards = 2
	if _, err := MSECDFAllEnv(mc.Env{}, p, fig5Schemes()[:1]); err != nil {
		t.Fatalf("Bins at the cap: %v", err)
	}
}

// forgedShards runs the campaign through an executor that replaces every
// shard's result with what forge returns, shipped through gob exactly as
// a remote worker's result would be.
func forgedShards(t *testing.T, p CDFParams, forge func(shard int) []stats.Accumulator) error {
	t.Helper()
	env := mc.Env{Tag: "fig5", Exec: func(job mc.ShardJob) (any, error) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(forge(job.Shard)); err != nil {
			return nil, err
		}
		return job.Decode(buf.Bytes())
	}}
	_, err := MSECDFAllEnv(env, p, fig5Schemes())
	return err
}

func TestMSECDFAllEnvRejectsMalformedShards(t *testing.T) {
	schemes := fig5Schemes()
	hists := func(bins int) []stats.Accumulator {
		accs := make([]stats.Accumulator, len(schemes))
		for j := range accs {
			accs[j] = stats.NewLogHistogram(bins, mseLogMin, mseLogMax)
		}
		return accs
	}
	exacts := func() []stats.Accumulator {
		accs := make([]stats.Accumulator, len(schemes))
		for j := range accs {
			accs[j] = &stats.WeightedCDF{}
		}
		return accs
	}
	hist := DefaultCDFParams()
	hist.Trun = 1e3
	hist.Shards = 4
	hist.Accum = AccumHist
	exact := hist
	exact.Accum = AccumExact

	cases := []struct {
		name  string
		p     CDFParams
		forge func(shard int) []stats.Accumulator
	}{
		{"empty shard", hist, func(int) []stats.Accumulator { return []stats.Accumulator{} }},
		{"short shard", hist, func(int) []stats.Accumulator { return hists(0)[:3] }},
		{"long shard", hist, func(int) []stats.Accumulator { return append(hists(0), hists(0)[0]) }},
		{"exact in hist campaign", hist, func(int) []stats.Accumulator { return exacts() }},
		{"hist in exact campaign", exact, func(int) []stats.Accumulator { return hists(0) }},
		{"other geometry", hist, func(int) []stats.Accumulator { return hists(100) }},
		{"one bad shard", hist, func(s int) []stats.Accumulator {
			if s == 2 {
				return hists(100)
			}
			return hists(0)
		}},
	}
	for _, c := range cases {
		err := forgedShards(t, c.p, c.forge)
		if err == nil {
			t.Errorf("%s: merged without error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), "shard ") {
			t.Errorf("%s: error %q does not name the shard", c.name, err)
		}
	}
	// Well-formed shards still merge.
	if err := forgedShards(t, hist, func(int) []stats.Accumulator { return hists(0) }); err != nil {
		t.Fatalf("well-formed shards rejected: %v", err)
	}
}
