// Command workloads walks through the resilient-workload family: list
// the registered workloads, run the quality-vs-yield campaign for the
// two non-ML members (resilient sort and selective-reliability CG) at a
// small Monte-Carlo budget, and read the resulting CDF and summary
// tables. The same campaign covers the paper's three ML applications
// (elastic net, PCA, KNN) and the restarted CG solve — drop the
// Workloads override to run all six.
//
//	go run ./examples/workloads
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"faultmem"
)

func main() {
	// 1. The workload registry is the campaign's vocabulary: each entry
	// is one application whose working set lives in faulty memory and
	// whose output quality the trial engine scores in [0, 1].
	fmt.Println("registered workloads:")
	for _, name := range faultmem.WorkloadNames() {
		display, metric, _ := faultmem.LookupWorkload(name)
		fmt.Printf("  %-12s %-16s quality metric: %s\n", name, display, metric)
	}

	// 2. The "workloads" experiment runs any subset through all eight
	// protection arms. Override its params over the JSON wire form:
	// here the two algorithm-based fault-tolerance workloads at a
	// reduced trial budget and problem size.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runner := &faultmem.Runner{
		Params: json.RawMessage(`{
			"Workloads": ["rsort", "cgsolve"],
			"Trials": 40, "Rows": 1024, "Keys": 2048, "Dim": 32
		}`),
		Progress: func(p faultmem.ExperimentProgress) {
			fmt.Fprintf(os.Stderr, "\r%s %d/%d", p.Experiment, p.Done, p.Total)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		},
	}
	res, err := faultmem.RunExperiment(ctx, "workloads", runner)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Each workload contributes a quality-CDF table (the fig7-style
	// exhibit: P(quality <= q) per protection arm) and a summary table
	// (mean/quantile quality per arm).
	fmt.Println()
	if err := res.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 4. Like every campaign in the registry, the run is deterministic:
	// the tables are byte-identical at any worker count.
	runner.Workers = 1
	again, err := faultmem.RunExperiment(ctx, "workloads", runner)
	if err != nil {
		log.Fatal(err)
	}
	t1, _ := json.Marshal(res.Tables)
	t2, _ := json.Marshal(again.Tables)
	fmt.Printf("\nsingle-worker rerun tables identical: %v\n", string(t1) == string(t2))
}
