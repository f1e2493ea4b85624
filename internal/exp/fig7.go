package exp

import (
	"context"
	"fmt"
	"slices"

	"faultmem/internal/workload"
)

// Fig7Params configures one benchmark application of the
// application-quality Monte Carlo.
type Fig7Params struct {
	// App is the benchmark application (Table 1): workload.ElasticNet (0,
	// Fig. 7a), workload.PCA (1, Fig. 7b) or workload.KNN (2, Fig. 7c).
	// The wider workload family runs under the `workloads` campaign.
	App workload.ID
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
func DefaultFig7Params(app workload.ID) Fig7Params {
	return Fig7Params{App: app, Rows: 4096, Pcell: 1e-3, Trials: 500, Seed: 7}
}

// QuickFig7Trials is the reduced -quick budget: the pre-PR default,
// kept as the fast smoke tier.
const QuickFig7Trials = 60

// Fig7Arms returns the protection arms plotted in Fig. 7: no protection,
// P-ECC, and bit-shuffling with nFM=1 and nFM=2 (higher nFM curves sit on
// top of nFM=2, §5.2).
func Fig7Arms() []Protection {
	return []Protection{ProtNone, ProtPECC, ProtShuffle1, ProtShuffle2}
}

// fig7Apps are the paper's three Fig. 7 benchmark applications, in
// paper order (7a/b/c).
var fig7Apps = []workload.ID{workload.ElasticNet, workload.PCA, workload.KNN}

// DefaultFig7Suite returns the registry's fig7 parameter set: one
// Fig7Params per benchmark application, in paper order.
func DefaultFig7Suite() []Fig7Params {
	ps := make([]Fig7Params, len(fig7Apps))
	for i, id := range fig7Apps {
		ps[i] = DefaultFig7Params(id)
	}
	return ps
}

// fig7Experiment adapts the application-quality suite to the registry:
// one run covers every configured benchmark, each a stage of the
// quality engine named after its app.
type fig7Experiment struct{}

func (fig7Experiment) Name() string { return "fig7" }
func (fig7Experiment) Description() string {
	return "application quality CDFs: elasticnet, PCA, KNN (Fig. 7a-c)"
}
func (fig7Experiment) DefaultParams() any { return DefaultFig7Suite() }

// plan resolves the effective suite and one quality stage per app: the
// four Fig. 7 arms under no recovery policy.
func (e fig7Experiment) plan(r *Runner) ([]Fig7Params, []qualityStage, error) {
	ps, err := runnerParams[[]Fig7Params](r, e)
	if err != nil {
		return nil, nil, err
	}
	// The override path hands back the caller's own slice; copy it so the
	// effective-params rewrite below cannot mutate caller state or let a
	// later caller mutation corrupt the returned Result.Params.
	ps = append([]Fig7Params(nil), ps...)
	stages := make([]qualityStage, len(ps))
	seen := map[workload.ID]bool{}
	for i := range ps {
		p := &ps[i]
		if !slices.Contains(fig7Apps, p.App) {
			return nil, nil, fmt.Errorf("exp: fig7 params: App = %d, want 0 (elasticnet), 1 (pca) or 2 (knn)", int(p.App))
		}
		// Each app is a stage named after it, and stage tags must be
		// unique within a campaign.
		if seen[p.App] {
			return nil, nil, fmt.Errorf("exp: fig7 params: duplicate app %q", p.App)
		}
		seen[p.App] = true
		p.Seed = r.seedOr(p.Seed)
		p.Workers = r.workersOr(p.Workers)
		if r.quick() && p.Trials > QuickFig7Trials {
			p.Trials = QuickFig7Trials
		}
		stages[i] = qualityStage{
			name:    p.App.String(),
			id:      p.App,
			wp:      workload.Params{Seed: p.Seed, MadelonPaperSize: p.MadelonPaperSize},
			arms:    Fig7Arms(),
			rows:    p.Rows,
			pcell:   p.Pcell,
			trials:  p.Trials,
			workers: p.Workers,
			seed:    p.Seed,
		}
	}
	return ps, stages, nil
}

func (e fig7Experiment) Run(ctx context.Context, r *Runner) (*Result, error) {
	ps, stages, err := e.plan(r)
	if err != nil {
		return nil, err
	}
	runs, err := r.runQuality(ctx, e.Name(), "apps", stages)
	if err != nil {
		return nil, err
	}
	res := &Result{Experiment: e.Name(), Params: ps}
	for _, run := range runs {
		s := run.stage
		display := s.id.Display()
		cdf := qualityCDFTable(run,
			fmt.Sprintf("Fig. 7%c - CDF of %s quality under memory failures (16KB, Pcell=%.0e)",
				'a'+slices.Index(fig7Apps, s.id), display, s.pcell),
			[]string{
				fmt.Sprintf("fault-free %s = %.4f (quality 1.0); %d Monte-Carlo trials per arm",
					run.metric, run.clean, s.trials),
				"H(39,32) ECC column is the error-free reference (samples with >1 error/word discarded, Section 5.2)",
			}, true)
		sum := qualitySummaryTable(run, fmt.Sprintf("Fig. 7 summary - %s (%s)", display, run.metric), true)
		res.Tables = append(res.Tables, cdf, sum)
	}
	return res, nil
}
