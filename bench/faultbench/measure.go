package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"time"
)

// report is what one child process measured. The parent merges the
// reports of a run into the printed metrics.
type report struct {
	Role string `json:"role"`
	// SetupS is the CPU time the process spent up to its first result.
	SetupS    float64  `json:"setup_s"`
	Digest    string   `json:"digest,omitempty"`
	Attempted int      `json:"attempted"`
	Failures  []string `json:"failures,omitempty"`
	// TrialsPerCPUS is dies per CPU second of the measured window.
	TrialsPerCPUS float64 `json:"trials_per_cpu_s,omitempty"`
	// TrialsPerS and LatencyS are the same window in wall time: printed
	// for reading, too noisy on a shared host to gate on.
	TrialsPerS float64            `json:"trials_per_s,omitempty"`
	LatencyS   []float64          `json:"latency_s,omitempty"`
	PeakRSSMiB float64            `json:"peak_rss_mib,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runFunc runs one repetition of a campaign and returns its result JSON.
type runFunc func(ctx context.Context) ([]byte, error)

// measureBatch is the batch workloads' closed loop: one cold repetition,
// whose end marks the set-up time, then timed repetitions until the
// window closes. Each timed repetition ends with a garbage collection
// that also returns free memory to the system, so it pays for its own
// garbage and the next starts from the same heap; its peak resident set
// is measured from there. Every result must equal the first byte for
// byte. With setupOnly it stops after the cold repetition.
func measureBatch(ctx context.Context, run runFunc, dies int, window time.Duration, setupOnly bool) *report {
	rep := &report{}
	first, err := run(ctx)
	rep.SetupS = cpuTime().Seconds()
	rep.Attempted++
	if err != nil {
		rep.fail("cold repetition: %v", err)
		return rep
	}
	rep.Digest = digest(first)
	if setupOnly {
		return rep
	}
	var perCPU, perWall, rss []float64
	debug.FreeOSMemory()
	start := time.Now()
	for i := 1; time.Since(start) < window && ctx.Err() == nil; i++ {
		resetPeakRSS()
		t0, c0 := time.Now(), cpuTime()
		b, err := run(ctx)
		rss = append(rss, peakRSSMiB())
		debug.FreeOSMemory()
		wall, cpu := time.Since(t0), cpuTime()-c0
		rep.Attempted++
		switch {
		case err != nil:
			rep.fail("repetition %d: %v", i, err)
		case !bytes.Equal(b, first):
			rep.fail("repetition %d: result sha256 %s differs from the first (%s)", i, digest(b), rep.Digest)
		default:
			rep.LatencyS = append(rep.LatencyS, wall.Seconds())
			perCPU = append(perCPU, float64(dies)/cpu.Seconds())
			perWall = append(perWall, float64(dies)/wall.Seconds())
		}
	}
	if len(perCPU) > 0 {
		rep.TrialsPerCPUS = median(perCPU)
		rep.TrialsPerS = median(perWall)
	}
	rep.PeakRSSMiB = median(rss)
	return rep
}

// servedChecks is how many finals of a served session are re-run
// locally and compared byte for byte.
const servedChecks = 12

// rssInterval is the served window's peak-memory sampling interval; the
// served peak is the median over intervals.
const rssInterval = 2 * time.Second

// mixQueue bounds how many campaigns a served window may draw; the
// window closes long before a closed loop of small campaigns gets there.
const mixQueue = 4096

// measureServeMix is the served workload: set-up is listen, worker
// join, client dial and the warm-up submissions, all at once, whose
// finals make the run's digest; then one client keeps `workers`
// campaigns of the mix in flight until the window closes, finishing the
// last block of the mix.
func measureServeMix(ctx context.Context, seed int64, window time.Duration, setupOnly bool) (*report, error) {
	rep := &report{}
	r, err := startRig(ctx, false)
	if err != nil {
		return nil, err
	}
	defer r.close()
	warm := warmups(seed)
	var finals []byte
	for _, s := range r.closedLoop(ctx, warm, len(warm), 0, 1) {
		rep.Attempted++
		if s.err != nil {
			rep.fail("warm-up: %v", s.err)
		}
		finals = append(finals, s.result...)
	}
	rep.SetupS = cpuTime().Seconds()
	rep.Digest = digest(finals)
	if setupOnly {
		return rep, nil
	}
	start, c0 := time.Now(), cpuTime()
	rss := sampleRSS(rssInterval)
	subs := r.closedLoop(ctx, mixCampaigns(seed, mixQueue), workers, window, mixBlock)
	wall, cpu := time.Since(start), cpuTime()-c0
	rep.PeakRSSMiB = median(rss.finish())
	dies := 0
	for _, s := range subs {
		rep.Attempted++
		if s.err != nil {
			rep.fail("%v", s.err)
			continue
		}
		rep.LatencyS = append(rep.LatencyS, s.final.Sub(s.sent).Seconds())
		dies += s.c.dies
	}
	if dies > 0 {
		rep.TrialsPerCPUS = float64(dies) / cpu.Seconds()
		rep.TrialsPerS = float64(dies) / wall.Seconds()
	}
	checkServed(ctx, rep, subs, sampleIndices(seed, len(subs), servedChecks))
	return rep, nil
}

// checkServed re-runs the sampled submissions locally; a served final
// that differs from its local run by a single byte is a failure.
func checkServed(ctx context.Context, rep *report, subs []*submission, idx []int) {
	for _, i := range idx {
		s := subs[i]
		if s.err != nil {
			continue // already counted
		}
		want, err := s.c.runLocal(ctx, nil)
		if err != nil {
			rep.fail("local check of submission %d: %v", i, err)
			continue
		}
		if !bytes.Equal(s.result, want) {
			rep.fail("submission %d (%s seed %d): served result differs from a local run",
				i, s.c.experiment, s.c.seed)
		}
	}
}
