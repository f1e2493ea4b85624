package exp

import (
	"context"
	"encoding/json"
	"testing"

	"faultmem/internal/stats"
	"faultmem/internal/yield"
)

// TestFig5BadParamsReturnError: client-set CDF params that the engine
// cannot run come back as errors from Run, never as a panic.
func TestFig5BadParamsReturnError(t *testing.T) {
	for _, c := range []struct {
		name string
		r    Runner
	}{
		{"Trun 0", Runner{Params: json.RawMessage(`{"CDF":{"Trun":0}}`)}},
		{"Trun negative", Runner{Params: json.RawMessage(`{"CDF":{"Trun":-5}}`)}},
		{"Rows 0", Runner{Params: json.RawMessage(`{"CDF":{"Rows":0}}`)}},
		{"Rows huge", Runner{Params: json.RawMessage(`{"CDF":{"Rows":10000000000}}`)}},
		{"Width 65", Runner{Params: json.RawMessage(`{"CDF":{"Width":65}}`)}},
		{"Bins over cap", Runner{Accum: yield.AccumHist, Bins: stats.MaxLogHistBins + 1}},
		{"Bins over cap in params", Runner{Params: json.RawMessage(`{"CDF":{"Bins":1000000,"Accum":2}}`)}},
	} {
		for _, name := range []string{"fig5", "pareto"} {
			r := c.r
			r.Quick = true
			res, err := Run(context.Background(), name, &r)
			if err == nil || res != nil {
				t.Errorf("%s %s: got result %v, err %v; want an error", name, c.name, res != nil, err)
			}
		}
	}
}
