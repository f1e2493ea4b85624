//go:build unix

package serve_test

import (
	"context"
	"encoding/json"
	"syscall"
	"testing"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/serve"
)

// cpuTime is the process's user plus system CPU time so far. Server,
// worker and client of a served campaign all run in this process.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkServedCampaign reports the CPU seconds one campaign costs
// (cpu-s/op) run locally through exp.Run and served: submitted to an
// in-process server and computed by one in-process sweep worker. The
// campaign kinds are those of the repository benchmark's serve-mix.
// Each side runs its campaign once before timing, so prepared workload
// instances are cached on both.
func BenchmarkServedCampaign(b *testing.B) {
	seed := int64(7)
	kinds := []struct {
		name string
		spec serve.Campaign
	}{
		{"fig5", serve.Campaign{Experiment: "fig5", Seed: &seed}},
		{"recovery-quick", serve.Campaign{Experiment: "recovery", Quick: true, Seed: &seed}},
		{"workloads", serve.Campaign{Experiment: "workloads", Seed: &seed,
			Params: []byte(`{"Workloads":["elasticnet","rsort","cgsolve"],"Trials":16}`)}},
		{"fig7-knn", serve.Campaign{Experiment: "fig7", Seed: &seed,
			Params: []byte(`[{"App":2,"Rows":4096,"Pcell":0.001,"Trials":16}]`)}},
	}
	measure := func(b *testing.B, run func()) {
		run()
		b.ResetTimer()
		start := cpuTime(b)
		for range b.N {
			run()
		}
		b.ReportMetric((cpuTime(b)-start).Seconds()/float64(b.N), "cpu-s/op")
	}
	for _, k := range kinds {
		b.Run(k.name+"/local", func(b *testing.B) {
			r := &exp.Runner{Seed: k.spec.Seed, Quick: k.spec.Quick}
			if k.spec.Params != nil {
				r.Params = json.RawMessage(k.spec.Params)
			}
			measure(b, func() {
				if _, err := exp.Run(context.Background(), k.spec.Experiment, r); err != nil {
					b.Fatal(err)
				}
			})
		})
		b.Run(k.name+"/served", func(b *testing.B) {
			srv := startServer(b, serve.Config{})
			startWorker(b, srv)
			c := dial(b, srv, serve.Options{})
			measure(b, func() {
				if f := submitAndWait(b, c, k.spec); f.Err != "" {
					b.Fatal(f.Err)
				}
			})
		})
	}
}
