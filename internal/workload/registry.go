package workload

import "fmt"

// ID is the typed workload identifier — the registry currency shared by
// the experiment layer, the CLIs, and the public facade, mirroring
// yield.SchemeID. The first three values are the integers of fig7's
// App param (exp.Fig7Params.App), so fig7 JSON params keep their meaning.
type ID int

const (
	// ElasticNet is the wine-quality regression benchmark (Fig. 7a).
	ElasticNet ID = iota
	// PCA is the Madelon dimensionality-reduction benchmark (Fig. 7b).
	PCA
	// KNN is the activity-recognition classification benchmark (Fig. 7c).
	KNN
	// RSort is resilient merge sorting with a small safe-memory budget
	// (Kopelowitz & Talmon): keys live in faulty memory, only the index
	// permutation is safe.
	RSort
	// CGSolve is a selective-reliability conjugate-gradient solve
	// (Bridges et al.): system coefficients live in faulty memory, the
	// solution and direction vectors stay in safe memory.
	CGSolve
	// CGRestart is the checksum-guarded restarted CG solve: the iterate
	// vectors also live in faulty memory, guarded by safe-memory
	// checksums and periodic checkpoints with bounded rollback-restarts.
	CGRestart

	numWorkloads = iota
)

// registry maps each ID to its stateless descriptor; indexed by ID.
var registry = [numWorkloads]Workload{
	ElasticNet: elasticNetWorkload{},
	PCA:        pcaWorkload{},
	KNN:        knnWorkload{},
	RSort:      rsortWorkload{},
	CGSolve:    cgWorkload{},
	CGRestart:  cgrestartWorkload{},
}

// Valid reports whether id names a registered workload.
func (id ID) Valid() bool { return id >= 0 && id < numWorkloads }

// Workload returns the registered descriptor.
func (id ID) Workload() (Workload, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("workload: invalid id %d", int(id))
	}
	return registry[id], nil
}

// String returns the canonical lowercase name.
func (id ID) String() string {
	if !id.Valid() {
		return fmt.Sprintf("workload(%d)", int(id))
	}
	return registry[id].Name()
}

// Metric returns the workload's quality-metric name ("?" for invalid
// ids).
func (id ID) Metric() string {
	if !id.Valid() {
		return "?"
	}
	return registry[id].Metric()
}

// Display returns the figure-facing display name.
func (id ID) Display() string {
	switch id {
	case ElasticNet:
		return "Elasticnet"
	case PCA:
		return "PCA"
	case KNN:
		return "KNN"
	case RSort:
		return "Resilient Sort"
	case CGSolve:
		return "CG Solve"
	case CGRestart:
		return "Restarted CG"
	default:
		return fmt.Sprintf("workload(%d)", int(id))
	}
}

// Parse maps a canonical name to its ID.
func Parse(s string) (ID, error) {
	for id := ID(0); id < numWorkloads; id++ {
		if registry[id].Name() == s {
			return id, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown workload %q (want one of %v)", s, Names())
}

// All returns every registered workload ID in registry order.
func All() []ID {
	ids := make([]ID, numWorkloads)
	for i := range ids {
		ids[i] = ID(i)
	}
	return ids
}

// Names returns every canonical workload name in registry order.
func Names() []string {
	names := make([]string, numWorkloads)
	for i, w := range registry {
		names[i] = w.Name()
	}
	return names
}
