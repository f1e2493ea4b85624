package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"faultmem/internal/mc"
	"faultmem/internal/workload"
)

// traceReps is how many untraced and then traced repetitions of each
// campaign the traced run times, after one cold repetition.
const traceReps = 2

// servedCopies is how many times a batch workload's traced run submits
// its campaign through the service, `workers` at a time.
const servedCopies = 3

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// traceRun is the traced run of a workload: its campaigns run locally,
// untraced and then traced through the shard executor; then they are
// served by an in-process service with a byte-counting proxy in front of
// its worker; then the layer probes run. It returns the per-layer
// metrics in the report, and the spans.
func traceRun(ctx context.Context, name string, seed int64, window time.Duration) (*report, []span, error) {
	rep := &report{Layers: map[string]float64{}}
	t := newTracer()
	batch := batchCampaign(name)
	var local []campaign
	if batch != nil {
		local = []campaign{batch(seed)}
	} else {
		local = warmups(seed)
	}
	firsts, err := traceLocal(ctx, t, rep, local)
	if err != nil {
		return nil, nil, err
	}
	if batch != nil {
		served := make([]campaign, servedCopies)
		for i := range served {
			served[i] = local[0]
		}
		err = traceServed(ctx, t, rep, served, 0, func(rep *report, subs []*submission) {
			for i, s := range subs {
				if s.err == nil && !bytes.Equal(s.result, firsts[0]) {
					rep.fail("served copy %d differs from the local run", i)
				}
			}
		})
	} else {
		err = traceServed(ctx, t, rep, mixCampaigns(seed, mixQueue), window, func(rep *report, subs []*submission) {
			checkServed(ctx, rep, subs, sampleIndices(seed, len(subs), servedChecks))
		})
	}
	if err != nil {
		return nil, nil, err
	}
	probe := t.start("probe", 0, 0)
	probeYield(seed, t, probe.s.ID, rep.Layers)
	if err := probeMemory(seed, t, probe.s.ID, rep.Layers); err != nil {
		return nil, nil, fmt.Errorf("memory probe: %w", err)
	}
	if err := probeWorkloads(seed, t, probe.s.ID, rep.Layers); err != nil {
		return nil, nil, fmt.Errorf("workload probe: %w", err)
	}
	probe.end()
	rep.PeakRSSMiB = peakRSSMiB()
	return rep, t.snapshot(), nil
}

// traceLocal runs each campaign cold, then traceReps times untraced and
// traceReps times traced, checking every result against the cold one,
// and returns the cold results. Throughput is counted per CPU second,
// each repetition ending with a garbage collection as in measureBatch.
func traceLocal(ctx context.Context, t *tracer, rep *report, cs []campaign) ([][]byte, error) {
	var g gobTally
	var untracedDies, tracedDies int
	var untracedCPU, tracedCPU time.Duration
	firsts := make([][]byte, len(cs))
	for ci, c := range cs {
		first, err := c.runLocal(ctx, nil)
		rep.Attempted++
		if err != nil {
			return nil, fmt.Errorf("cold repetition: %w", err)
		}
		firsts[ci] = first
		if ci == 0 {
			rep.Digest = digest(first)
		}
		for i := range 2 * traceReps {
			traced := i >= traceReps
			var exec mc.ExecFunc
			var camp *openSpan
			if traced {
				camp = t.start("exp.campaign", 0, ci*2*traceReps+i)
				exec = tracedExec(t, make(chan struct{}, workers), camp.s.ID, camp.s.Rep, &g)
			}
			c0 := cpuTime()
			b, err := c.runLocal(ctx, exec)
			if camp != nil {
				camp.end()
			}
			debug.FreeOSMemory()
			cpu := cpuTime() - c0
			rep.Attempted++
			switch {
			case err != nil:
				rep.fail("%s repetition %d: %v", c.experiment, i, err)
				continue
			case !bytes.Equal(b, first):
				rep.fail("%s repetition %d (traced %v): result differs from the cold run", c.experiment, i, traced)
				continue
			}
			if traced {
				tracedDies, tracedCPU = tracedDies+c.dies, tracedCPU+cpu
			} else {
				untracedDies, untracedCPU = untracedDies+c.dies, untracedCPU+cpu
			}
		}
	}
	engineLayers(t.snapshot(), &g, rep.Layers)
	if tracedCPU > 0 && untracedCPU > 0 {
		rep.Layers["trace.overhead_frac"] = 1 - (float64(tracedDies)/tracedCPU.Seconds())/(float64(untracedDies)/untracedCPU.Seconds())
	}
	return firsts, nil
}

// engineLayers derives the mc, exp and wire-encoding metrics of the
// traced campaigns from their spans.
func engineLayers(spans []span, g *gobTally, out map[string]float64) {
	self := selfTimes(spans)
	var shardMS []float64
	busy := map[int]time.Duration{}
	shards := map[int]int{}
	for _, s := range spans {
		if s.Name == "mc.shard" {
			shardMS = append(shardMS, ms(s.dur()))
			busy[s.Parent] += s.dur()
			shards[s.Parent]++
		}
	}
	var idle, serial, count []float64
	for _, s := range spans {
		if s.Name != "exp.campaign" {
			continue
		}
		idle = append(idle, 1-busy[s.ID].Seconds()/(float64(workers)*s.dur().Seconds()))
		serial = append(serial, ms(self[s.ID]))
		count = append(count, float64(shards[s.ID]))
	}
	out["mc.shard_ms_p50"] = quantile(shardMS, 0.5)
	out["mc.shard_ms_p90"] = quantile(shardMS, 0.9)
	out["mc.idle_frac"] = median(idle)
	out["mc.shards_per_campaign"] = median(count)
	out["exp.serial_ms"] = median(serial)
	if g.shards > 0 {
		out["sweep.gob_us_per_shard"] = float64(g.dur) / 1e3 / float64(g.shards)
		out["sweep.gob_kib_per_shard"] = float64(g.bytes) / 1024 / float64(g.shards)
	}
}

// traceServed runs the campaigns through a proxied service, `workers`
// at a time (all of them, or until the window closes when it is
// positive), and derives the serve and sweep metrics. Each submission is
// a span with three children: the submit round trip (send to ack), the
// queue (ack to the first snapshot showing progress, or to the final
// when the campaign ends before one) and the run (on to the final).
func traceServed(ctx context.Context, t *tracer, rep *report, cs []campaign, window time.Duration, check func(*report, []*submission)) error {
	hits, misses := workload.InstanceCacheStats()
	r, err := startRig(ctx, true)
	if err != nil {
		return err
	}
	subs := r.closedLoop(ctx, cs, workers, window, mixBlock)
	pool := r.srv.PoolStats()
	progress := make([]time.Time, len(subs))
	for i, s := range subs {
		if p, ok := r.firstProgress(s.job); ok && s.err == nil && p.Before(s.final) {
			progress[i] = p
		} else {
			progress[i] = s.final
		}
	}
	r.close()
	var latencyMS, submitMS, queueMS, runMS []float64
	for i, s := range subs {
		rep.Attempted++
		if s.err != nil {
			rep.fail("%v", s.err)
			continue
		}
		root := t.record("serve.submission", 0, i, s.sent, s.final)
		t.record("serve.submit", root, i, s.sent, s.acked)
		t.record("serve.queue", root, i, s.acked, progress[i])
		t.record("serve.run", root, i, progress[i], s.final)
		latencyMS = append(latencyMS, ms(s.final.Sub(s.sent)))
		submitMS = append(submitMS, ms(s.acked.Sub(s.sent)))
		queueMS = append(queueMS, ms(progress[i].Sub(s.acked)))
		runMS = append(runMS, ms(s.final.Sub(s.acked)))
	}
	check(rep, subs)
	out := rep.Layers
	out["serve.latency_ms_p50"] = quantile(latencyMS, 0.5)
	out["serve.latency_ms_p90"] = quantile(latencyMS, 0.9)
	out["serve.submit_ms_p50"] = quantile(submitMS, 0.5)
	out["serve.queue_ms_p50"] = quantile(queueMS, 0.5)
	out["serve.queue_ms_p90"] = quantile(queueMS, 0.9)
	out["serve.run_ms_p50"] = quantile(runMS, 0.5)
	out["workload.cache_hit_ratio"] = cacheHitRatio(hits, misses)
	out["sweep.reassigned"] = float64(pool.Reassigned)
	out["sweep.frames_rejected"] = float64(pool.FramesRejected)
	if total := pool.RemoteShards + pool.LocalShards; total > 0 {
		out["sweep.remote_shard_frac"] = float64(pool.RemoteShards) / float64(total)
	}
	if pool.RemoteShards > 0 {
		out["sweep.wire_kib_per_shard"] = float64(r.proxy.bytes.Load()) / 1024 / float64(pool.RemoteShards)
	}
	return nil
}
