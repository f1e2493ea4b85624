package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
	"faultmem/internal/serve"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
	"faultmem/internal/yield"
)

// campaign is one run of a registered experiment exactly as a user
// submits it: the registry name, a strict JSON override of its default
// parameters, the -quick tier and the seed. dies is the input size the
// throughput metric counts: one die is one fault map pushed through
// every protection arm of one stage.
type campaign struct {
	experiment string
	params     string
	quick      bool
	seed       int64
	dies       int
}

// workers is the engine parallelism every campaign runs with: one
// goroutine per CPU the process may use.
var workers = runtime.NumCPU()

// runner is the campaign's exp.Runner; exec, when non-nil, takes over
// shard execution (the traced run's hook).
func (c campaign) runner(exec mc.ExecFunc) *exp.Runner {
	seed := c.seed
	r := &exp.Runner{Workers: workers, Seed: &seed, Quick: c.quick, Exec: exec}
	if c.params != "" {
		r.Params = json.RawMessage(c.params)
	}
	return r
}

// submission is the campaign in the form a serve client submits it.
func (c campaign) submission() serve.Campaign {
	seed := c.seed
	s := serve.Campaign{Experiment: c.experiment, Seed: &seed, Quick: c.quick, Workers: workers}
	if c.params != "" {
		s.Params = []byte(c.params)
	}
	return s
}

// runLocal runs the campaign in this process and returns its result
// JSON, the bytes a served run must reproduce exactly.
func (c campaign) runLocal(ctx context.Context, exec mc.ExecFunc) ([]byte, error) {
	res, err := exp.Run(ctx, c.experiment, c.runner(exec))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.experiment, err)
	}
	return res.JSON()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fig5Dies is the number of dies a fig5 campaign draws: the Eq. (4)
// sample plan of yield.CDFParams, k(n) = Pr(N=n)*Trun samples (at least
// one, at most MaxPerCount) for every failure count up to the 99.99%
// point of the prior.
func fig5Dies(p yield.CDFParams) int {
	m := p.Cells()
	nmax := p.MaxFailures
	if nmax == 0 {
		nmax = max(stats.BinomialQuantile(m, p.Pcell, 0.9999), 1)
	}
	total := 0
	for n := 1; n <= nmax; n++ {
		w := stats.BinomialPMF(m, p.Pcell, n)
		if w <= 0 {
			continue
		}
		k := max(int(w*p.Trun+0.5), 1)
		if p.MaxPerCount > 0 {
			k = min(k, p.MaxPerCount)
		}
		total += k
	}
	return total
}

// Batch campaign sizes: each repetition takes one to three seconds on two
// cores, and draws enough dies that the work per repetition varies
// little from seed to seed.
const (
	// fig5Trun is the paper's Monte-Carlo budget for Fig. 5, uncapped
	// per failure count (about 4.8M dies).
	fig5Trun = 1e7
	// fig7Trials is the per-application trial budget of fig7-ml.
	fig7Trials = 32
	// recoveryTrials is the per-policy trial budget of recovery-mem.
	recoveryTrials = 24
)

// recoveryPolicies is the number of policies the recovery campaign
// compares by default.
var recoveryPolicies = len(workload.AllPolicies())

func fig5Engine(seed int64) campaign {
	p := yield.DefaultCDFParams()
	p.Trun, p.MaxPerCount = fig5Trun, 0
	return campaign{
		experiment: "fig5",
		params:     fmt.Sprintf(`{"CDF":{"Trun":%g,"MaxPerCount":0}}`, fig5Trun),
		seed:       seed,
		dies:       fig5Dies(p),
	}
}

func fig7ML(seed int64) campaign {
	apps := make([]string, 3)
	for i := range apps {
		apps[i] = fmt.Sprintf(`{"App":%d,"Rows":4096,"Pcell":0.001,"Trials":%d}`, i, fig7Trials)
	}
	return campaign{
		experiment: "fig7",
		params:     "[" + apps[0] + "," + apps[1] + "," + apps[2] + "]",
		seed:       seed,
		dies:       len(apps) * fig7Trials,
	}
}

func recoveryMem(seed int64) campaign {
	return campaign{
		experiment: "recovery",
		params:     fmt.Sprintf(`{"Workload":"cgrestart","Trials":%d}`, recoveryTrials),
		seed:       cgrestartSeed(seed),
		dies:       recoveryPolicies * recoveryTrials,
	}
}

// cgrestartSeeds bounds the search of cgrestartSeed.
const cgrestartSeeds = 64

// cgrestartSeed returns the first of seed, DeriveSeed(seed, 1),
// DeriveSeed(seed, 2), ... whose cgrestart system the workload accepts.
// About one seed in a hundred draws a system whose fault-free guarded
// iteration does not converge on the fixed-point grid, and Prepare
// refuses it; the benchmark draws only problems the program can solve.
// If none of the candidates prepares, seed itself is returned and the
// campaign reports the error.
func cgrestartSeed(seed int64) int64 {
	wl, err := workload.CGRestart.Workload()
	if err != nil {
		return seed
	}
	for k := range int64(cgrestartSeeds) {
		s := seed
		if k > 0 {
			s = stats.DeriveSeed(seed, k)
		}
		if _, err := wl.Prepare(workload.Params{Seed: s}); err == nil {
			return s
		}
	}
	return seed
}

// mixEntry is one campaign kind of the served mix, with its share of
// every block of mixBlock submissions.
type mixEntry struct {
	share int
	make  func(seed int64) campaign
}

// The served mix: small campaigns, so per-campaign fixed costs (the
// instance cache, scheduling, gob/gzip framing, JSON) sit on the
// critical path.
var servedMix = []mixEntry{
	{2, func(seed int64) campaign {
		return campaign{experiment: "fig5", seed: seed, dies: fig5Dies(yield.DefaultCDFParams())}
	}},
	{1, func(seed int64) campaign {
		return campaign{experiment: "recovery", quick: true, seed: seed,
			dies: recoveryPolicies * exp.QuickRecoveryTrials}
	}},
	{1, func(seed int64) campaign {
		return campaign{experiment: "workloads", seed: seed, dies: 3 * 16,
			params: `{"Workloads":["elasticnet","rsort","cgsolve"],"Trials":16}`}
	}},
	{1, func(seed int64) campaign {
		return campaign{experiment: "fig7", seed: seed, dies: 16,
			params: `[{"App":2,"Rows":4096,"Pcell":0.001,"Trials":16}]`}
	}},
}

// mixBlock is the sum of the mix shares.
const mixBlock = 5

// mixSeeds is the size of the seed pool the served mix draws from. The
// warm-up submits every entry at every pool seed, so measured
// submissions find their prepared instances in the server's cache and
// preparation counts in the set-up time.
const mixSeeds = 2

// mixCampaigns draws the first n submissions of the served mix: every
// block of mixBlock submissions holds each entry exactly its share, in
// seeded order, and each submission takes a seed from the pool.
func mixCampaigns(seed int64, n int) []campaign {
	rng := stats.NewRand(seed)
	var block []int
	for i, e := range servedMix {
		for range e.share {
			block = append(block, i)
		}
	}
	out := make([]campaign, n)
	for i := range out {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		out[i] = servedMix[block[i%len(block)]].make(poolSeed(seed, rng.Intn(mixSeeds)))
	}
	return out
}

func poolSeed(seed int64, k int) int64 { return stats.DeriveSeed(seed, int64(k)) }

// warmups is one submission of every mix entry at every pool seed.
func warmups(seed int64) []campaign {
	var out []campaign
	for k := range mixSeeds {
		for _, e := range servedMix {
			out = append(out, e.make(poolSeed(seed, k)))
		}
	}
	return out
}

// sampleIndices picks min(k, n) distinct indices of n, sorted, from the
// seed.
func sampleIndices(seed int64, n, k int) []int {
	idx := stats.NewRand(seed).Perm(n)[:min(k, n)]
	slices.Sort(idx)
	return idx
}
