package exp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"faultmem/internal/mc"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
)

// App selects a Fig. 7 benchmark application (Table 1). Its values
// coincide with the first three workload.ID entries, so existing JSON
// params keep their meaning; the per-app trial logic itself lives in
// internal/workload.
type App int

const (
	// AppElasticnet is the wine-quality regression benchmark (Fig. 7a).
	AppElasticnet App = App(workload.ElasticNet)
	// AppPCA is the Madelon dimensionality-reduction benchmark (Fig. 7b).
	AppPCA App = App(workload.PCA)
	// AppKNN is the activity-recognition classification benchmark
	// (Fig. 7c).
	AppKNN App = App(workload.KNN)
)

// valid reports whether a names a Fig. 7 benchmark (the experiment runs
// only the paper's three apps; the wider workload family runs under the
// `workloads` campaign).
func (a App) valid() bool { return a >= AppElasticnet && a <= AppKNN }

// String returns the benchmark name.
func (a App) String() string {
	if !a.valid() {
		return fmt.Sprintf("app(%d)", int(a))
	}
	return workload.ID(a).Display()
}

// Metric returns the Table 1 quality metric name of the benchmark.
func (a App) Metric() string {
	if !a.valid() {
		return "?"
	}
	return workload.ID(a).Metric()
}

// ParseApp maps a CLI name to the benchmark.
func ParseApp(s string) (App, error) {
	switch s {
	case "elasticnet":
		return AppElasticnet, nil
	case "pca":
		return AppPCA, nil
	case "knn":
		return AppKNN, nil
	default:
		return 0, fmt.Errorf("exp: unknown app %q (want elasticnet|pca|knn)", s)
	}
}

// Fig7Params configures the application-quality Monte Carlo.
type Fig7Params struct {
	App App
	// Rows is the memory macro depth (4096 = 16 KB); the training set is
	// paged through this single macro, so its fault map touches every
	// page (§5.2's "functional model of a 16KB memory").
	Rows int
	// Pcell is the bit-cell failure probability (the paper uses 1e-3 for
	// Fig. 7).
	Pcell float64
	// Trials is the Monte-Carlo sample count per protection arm. The
	// paper uses 500 samples per failure count; here each trial draws its
	// failure count from the Binomial prior directly (equal-weight
	// samples of the same mixture), so Trials plays the role of the total
	// budget.
	Trials int
	// Seed drives everything: dataset generation, split, fault maps.
	Seed int64
	// MadelonPaperSize switches the PCA benchmark to the full 500-feature
	// geometry (slow; default false uses 100 features).
	MadelonPaperSize bool
	// Workers is the goroutine count the trials run on (0 = GOMAXPROCS).
	// Each trial is its own deterministic RNG stream, so results are
	// identical for every worker count.
	Workers int
}

// DefaultFig7Params returns the published memory setup at the paper's
// trial budget (500 samples per arm, §5.2). The top-k PCA eigensolver,
// Gram/active-set elastic net, and pruned KNN made warm trials cheap
// enough that the paper budget replaced the old laptop-scale default
// of 60 (`faultmem fig7 -quick` restores the fast tier).
func DefaultFig7Params(app App) Fig7Params {
	return Fig7Params{App: app, Rows: 4096, Pcell: 1e-3, Trials: 500, Seed: 7}
}

// QuickFig7Trials is the reduced -quick budget: the pre-PR default,
// kept as the fast smoke tier.
const QuickFig7Trials = 60

// Fig7Arm is one protection scheme's quality sample.
type Fig7Arm struct {
	Scheme    Protection
	Qualities []float64 // normalized to the fault-free metric, sorted ascending
}

// CDFAt returns the empirical Pr(quality <= q): an upper-bound binary
// search for the first quality above q, so duplicate-heavy samples (many
// trials at quality 1.0) cost O(log n) instead of a linear walk. An
// empty arm has no mass anywhere, so CDFAt returns 0 (not NaN).
func (a Fig7Arm) CDFAt(q float64) float64 {
	if len(a.Qualities) == 0 {
		return 0
	}
	i := sort.Search(len(a.Qualities), func(i int) bool { return a.Qualities[i] > q })
	return float64(i) / float64(len(a.Qualities))
}

// QualityAtYield returns the quality floor guaranteed with probability
// 1-level: the level-quantile of the quality sample — the smallest
// sample q with Pr(quality <= q) >= level, i.e. index ceil(level*n)-1,
// the same empirical-quantile convention (and relative tolerance) as
// stats.WeightedCDF.Quantile. It panics on an empty arm.
func (a Fig7Arm) QualityAtYield(level float64) float64 {
	n := len(a.Qualities)
	if n == 0 {
		panic("exp: empty arm")
	}
	nf := float64(n)
	idx := int(math.Ceil(level*nf-1e-12*nf)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return a.Qualities[idx]
}

// Mean returns the average normalized quality.
func (a Fig7Arm) Mean() float64 { return stats.Mean(a.Qualities) }

// Fig7Result bundles the benchmark run.
type Fig7Result struct {
	Params      Fig7Params
	CleanMetric float64
	Arms        []Fig7Arm
	// ECCReference notes that H(39,32) ECC is the quality-1.0 reference
	// line (§5.2: samples with more than one error per word are
	// discarded so ECC is error-free).
	ECCReference float64
}

// prepare resolves the benchmark's workload and builds its instance:
// dataset, 0.8:0.2 split, and the fault-free reference metric.
func (p Fig7Params) prepare() (workload.Instance, error) {
	if !p.App.valid() {
		return nil, fmt.Errorf("exp: unknown app %v", p.App)
	}
	return workload.PrepareShared(workload.ID(p.App),
		workload.Params{Seed: p.Seed, MadelonPaperSize: p.MadelonPaperSize})
}

// Fig7Arms returns the protection arms plotted in Fig. 7: no protection,
// P-ECC, and bit-shuffling with nFM=1 and nFM=2 (higher nFM curves sit on
// top of nFM=2, §5.2).
func Fig7Arms() []Protection {
	return []Protection{ProtNone, ProtPECC, ProtShuffle1, ProtShuffle2}
}

// Fig7 runs the Monte-Carlo quality experiment on the parallel engine.
// Trials are split into contiguous spans, one span per worker-sized
// shard; within a span every trial draws from its own RNG stream derived
// from (seed, trial index), so the quality samples are bit-identical for
// any worker or shard count. Each trial draws its die's fault map once
// and pushes the training set through every protection arm's memory
// (common random numbers), so the arms' quality CDFs are compared on
// identical dies and each trial pays fault generation once instead of
// once per arm. Trials sharing a shard reuse one workload.Workspace
// (dataset round-trip scratch, ML fit buffers, per-arm memories), so a
// warm trial allocates almost nothing — the generic trial loop lives in
// workload.TrialRunner.
func Fig7(p Fig7Params) (Fig7Result, error) {
	return Fig7Env(mc.Env{}, p)
}

// Fig7Env is Fig7 under an execution environment: bit-identical quality
// samples when the context stays live, ctx.Err() when it is cancelled or
// deadlined. Cancellation is polled before the (expensive) dataset
// preparation and between trials inside each shard, so even a one-shard
// run returns promptly; shard completions reach the environment's
// OnShard.
func Fig7Env(env mc.Env, p Fig7Params) (Fig7Result, error) {
	if p.Trials < 1 || p.Rows < 1 || p.Pcell <= 0 || p.Pcell >= 1 {
		return Fig7Result{}, fmt.Errorf("exp: bad Fig7 params %+v", p)
	}
	if err := env.Context().Err(); err != nil {
		return Fig7Result{}, err
	}
	inst, err := p.prepare()
	if err != nil {
		return Fig7Result{}, err
	}
	arms, _, err := runQualityArms(env, inst, qualityConfig{
		name:    strings.ToLower(p.App.String()),
		arms:    Fig7Arms(),
		rows:    p.Rows,
		pcell:   p.Pcell,
		trials:  p.Trials,
		workers: p.Workers,
		seed:    p.Seed,
	})
	if err != nil {
		return Fig7Result{}, err
	}
	return Fig7Result{Params: p, CleanMetric: inst.Clean(), ECCReference: 1.0, Arms: arms}, nil
}

// QualityCDFTable tabulates the per-arm quality CDF over a fixed grid —
// the curves of Fig. 7a/b/c.
func (r Fig7Result) QualityCDFTable() *Table {
	header := []string{"normalized " + r.Params.App.Metric()}
	for _, a := range r.Arms {
		header = append(header, a.Scheme.String())
	}
	header = append(header, "H(39,32) ECC")
	t := &Table{
		Title: fmt.Sprintf("Fig. 7%s - CDF of %s quality under memory failures (16KB, Pcell=%.0e)",
			map[App]string{AppElasticnet: "a", AppPCA: "b", AppKNN: "c"}[r.Params.App],
			r.Params.App, r.Params.Pcell),
		Header: header,
		Notes: []string{
			fmt.Sprintf("fault-free %s = %.4f (quality 1.0); %d Monte-Carlo trials per arm",
				r.Params.App.Metric(), r.CleanMetric, r.Params.Trials),
			"H(39,32) ECC column is the error-free reference (samples with >1 error/word discarded, Section 5.2)",
		},
	}
	for q := 0.0; q <= 1.0001; q += 0.05 {
		row := []string{fmt.Sprintf("%.2f", q)}
		for _, a := range r.Arms {
			row = append(row, fmt.Sprintf("%.3f", a.CDFAt(q)))
		}
		// ECC: all mass at quality 1.0.
		if q >= 1 {
			row = append(row, "1.000")
		} else {
			row = append(row, "0.000")
		}
		t.AddRow(row...)
	}
	return t
}

// SummaryTable reports mean quality and low quantiles per arm.
func (r Fig7Result) SummaryTable() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig. 7 summary - %s (%s)", r.Params.App, r.Params.App.Metric()),
		Header: []string{"scheme", "mean quality", "q10", "q50", "min"},
	}
	for _, a := range r.Arms {
		t.AddRow(a.Scheme.String(),
			fmt.Sprintf("%.4f", a.Mean()),
			fmt.Sprintf("%.4f", a.QualityAtYield(0.10)),
			fmt.Sprintf("%.4f", a.QualityAtYield(0.50)),
			fmt.Sprintf("%.4f", a.Qualities[0]))
	}
	t.AddRow("H(39,32) ECC", "1.0000", "1.0000", "1.0000", "1.0000")
	return t
}

// Fig7Apps returns the benchmark applications in paper order (7a/b/c).
func Fig7Apps() []App { return []App{AppElasticnet, AppPCA, AppKNN} }

// DefaultFig7Suite returns the registry's fig7 parameter set: one
// Fig7Params per benchmark application, in paper order.
func DefaultFig7Suite() []Fig7Params {
	apps := Fig7Apps()
	ps := make([]Fig7Params, len(apps))
	for i, a := range apps {
		ps[i] = DefaultFig7Params(a)
	}
	return ps
}

// fig7Experiment adapts the application-quality suite to the registry:
// one run covers every configured benchmark (the old `fig7 -app all`).
type fig7Experiment struct{}

func (fig7Experiment) Name() string { return "fig7" }
func (fig7Experiment) Description() string {
	return "application quality CDFs: elasticnet, PCA, KNN (Fig. 7a-c)"
}
func (fig7Experiment) DefaultParams() any { return DefaultFig7Suite() }

func (e fig7Experiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	ps, err := runnerParams[[]Fig7Params](r, e)
	if err != nil {
		return nil, err
	}
	// The override path hands back the caller's own slice; copy it so the
	// effective-params rewrite below cannot mutate caller state or let a
	// later caller mutation corrupt the returned Result.Params.
	ps = append([]Fig7Params(nil), ps...)
	res := &Result{Experiment: e.Name()}
	seen := map[App]bool{}
	for i := range ps {
		// Each app is a stage named after it, and stage tags must be
		// unique within a campaign.
		if seen[ps[i].App] {
			return nil, fmt.Errorf("exp: fig7 params: duplicate app %q", strings.ToLower(ps[i].App.String()))
		}
		seen[ps[i].App] = true
		ps[i].Seed = r.seedOr(ps[i].Seed)
		ps[i].Workers = r.workersOr(ps[i].Workers)
		if r.quick() && ps[i].Trials > QuickFig7Trials {
			ps[i].Trials = QuickFig7Trials
		}
	}
	res.Params = ps
	for i, p := range ps {
		stage := strings.ToLower(p.App.String())
		if r.skips(e.Name(), stage) {
			continue
		}
		out, err := Fig7Env(r.env(ctx, e.Name(), stage), p)
		if err != nil {
			return nil, err
		}
		res.Tables = append(res.Tables, out.QualityCDFTable(), out.SummaryTable())
		r.note(e.Name(), "apps", i+1, len(ps))
	}
	return res, nil
}
