package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"faultmem/internal/yield"
)

// fig5HistJSONGolden is the SHA-256 of the histogram-mode fig5 result's
// JSON at seed 7, captured when the engine began to compute the one- and
// two-fault strata exactly and to sample only dies of three or more
// faults: the rendered CDF and yield tables must not move when the
// engine or the binning changes implementation.
const fig5HistJSONGolden = "5b2d4e3198e600f3028c5241ab984d4e76e0a0287723553060b1c386c222df4e"

func TestFig5HistogramJSONGolden(t *testing.T) {
	seed := int64(7)
	res, err := Run(context.Background(), "fig5", &Runner{
		Workers: 2, Seed: &seed, Accum: yield.AccumHist,
		Params: json.RawMessage(`{"CDF":{"Trun":2e6,"MaxPerCount":0}}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != fig5HistJSONGolden {
		t.Fatalf("histogram-mode fig5 JSON SHA-256 %s, want %s", got, fig5HistJSONGolden)
	}
}
