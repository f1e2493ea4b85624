package main

import (
	"fmt"
	"math/rand"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/fault"
	"faultmem/internal/mem"
	"faultmem/internal/memstore"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
	"faultmem/internal/yield"
)

// The layer probes time single layers through their public calls, on
// inputs drawn from the run's seed. They are the same on every
// workload; the workload decides which end-to-end metric each layer
// moves (see bench/README.md).

// sink keeps probe results live so the compiler cannot drop the calls.
var sink float64

// probeApps are the workloads whose trial and prepare costs are probed:
// the three Fig. 7 applications and the recovery workload.
var probeApps = []workload.ID{workload.ElasticNet, workload.PCA, workload.KNN, workload.CGRestart}

// recoveryDefaults are the recovery campaign's defaults: the memory
// geometry, soft-error rate and mechanism settings the memory probe
// replays.
var recoveryDefaults = exp.DefaultRecoveryParams()

// probePolicies are the recovery policies whose checked round trips are
// probed.
var probePolicies = []struct {
	name string
	rec  memstore.Recovery
}{
	{"retry", memstore.Recovery{Retries: recoveryDefaults.Retries}},
	{"saferestore", memstore.Recovery{Retries: recoveryDefaults.Retries, Restore: true, Budget: recoveryDefaults.SafeWords}},
}

// probeYield times the Fig. 5 inner loop: RowSampler.Draw per die,
// Scheme.RowMSE (through RowSampler.MSE) per (die, arm), and
// LogHistogram.Add per (die, arm). The same dies are replayed in three
// passes — draw only, draw+MSE, draw+MSE+add — and each layer's cost is
// the difference between passes, so no clock read sits inside the loop.
func probeYield(seed int64, t *tracer, parent int, out map[string]float64) {
	const dies = 1 << 20
	p := yield.DefaultCDFParams()
	arms := exp.Fig5Arms()
	schemes := make([]yield.Scheme, len(arms))
	for i, a := range arms {
		schemes[i] = a.YieldScheme()
	}
	rng := stats.NewRand(seed)
	counts := make([]int, dies)
	for i := range counts {
		for counts[i] == 0 {
			counts[i] = stats.SampleBinomial(rng, p.Cells(), p.Pcell)
		}
	}
	hists := make([]*stats.LogHistogram, len(schemes))
	for i := range hists {
		hists[i] = stats.NewLogHistogram(0, -8, 20)
	}
	s := yield.NewRowSampler(p.Rows, p.Width)
	rows := 0
	pass := func(name string, stage int) time.Duration {
		sp := t.start(name, parent, 0)
		drawRNG := stats.NewRand(seed + 1)
		acc := 0.0
		for _, n := range counts {
			s.Draw(drawRNG, n)
			if stage == 0 {
				rows += len(s.Rows())
				continue
			}
			for j, sch := range schemes {
				v := s.MSE(sch)
				if stage == 2 {
					hists[j].Add(v, 1)
				} else {
					acc += v
				}
			}
		}
		sink += acc
		return sp.end()
	}
	var draw, mse, add []float64
	for range 3 {
		d := pass("yield.draw", 0)
		m := pass("yield.rowmse", 1)
		a := pass("stats.add", 2)
		draw = append(draw, float64(d))
		mse = append(mse, float64(m-d))
		add = append(add, float64(a-m))
	}
	per := float64(dies * len(schemes))
	out["yield.draw_ns"] = median(draw) / dies
	out["yield.rowmse_ns"] = max(median(mse), 0) / per
	out["stats.add_ns"] = max(median(add), 0) / per
	out["yield.rows_per_die"] = float64(rows) / float64(3*dies)
}

// arrayed is the facet of a protection arm that exposes its bit-cell
// array, where soft errors are injected.
type arrayed interface{ Array() *sram.Array }

// drawDie replays the fault draw of workload.TrialRunner.RunTrial: the
// failure count from the Binomial prior conditioned on at least one
// failure, then that many distinct cells.
func drawDie(rng *rand.Rand) fault.Map {
	n := 0
	for n == 0 {
		n = stats.SampleBinomial(rng, recoveryDefaults.Rows*mem.DataWidth, recoveryDefaults.Pcell)
	}
	return fault.GenerateCount(rng, recoveryDefaults.Rows, mem.DataWidth, n, fault.Flip)
}

// installDie puts the die's fault map into the arm's memory: built on
// first use, reset in place after, as the trial runner does.
func installDie(arm exp.Protection, m *mem.Word32, fm fault.Map) error {
	if *m == nil {
		built, err := arm.Build(recoveryDefaults.Rows, fm)
		*m = built
		return err
	}
	rs, ok := (*m).(mem.Resetter)
	if !ok {
		return fmt.Errorf("arm %v cannot be reset in place", arm)
	}
	return rs.Reset(fm)
}

// probeMemory replays workload.TrialRunner.RunTrial step by step on the
// recovery campaign's cgrestart instance: the fault draw, the per-arm
// reset with soft errors enabled, the plain cached round trip of every
// arm, and the checked round trip of every recovery policy, with the
// saferestore policy's counters per trial.
func probeMemory(seed int64, t *tracer, parent int, out map[string]float64) error {
	const trials = 12
	wl, err := workload.CGRestart.Workload()
	if err != nil {
		return err
	}
	inst, err := wl.Prepare(workload.Params{Seed: cgrestartSeed(seed)})
	if err != nil {
		return fmt.Errorf("prepare cgrestart: %w", err)
	}
	ws := &workload.Workspace{Codec: memstore.DefaultCodec()}
	inst.StoreOn(ws)
	arms := exp.AllProtections()
	mems := make([]mem.Word32, len(arms))
	recs := make([][]memstore.Recovery, len(probePolicies))
	for i, p := range probePolicies {
		recs[i] = make([]memstore.Recovery, len(arms))
		for j := range recs[i] {
			recs[i][j] = p.rec
		}
	}
	var draw, reset time.Duration
	resets := 0
	trip := make([]time.Duration, len(arms))
	policyTrip := make([]time.Duration, len(probePolicies))
	for trial := 0; trial < trials; trial++ {
		rng := stats.Derive(seed, int64(trial))
		sp := t.start("fault.draw", parent, trial)
		fm := drawDie(rng)
		draw += sp.end()
		for ai, arm := range arms {
			name, built := "mem.reset", mems[ai] != nil
			if !built {
				name = "mem.build"
			}
			install := t.start(name, parent, trial)
			err := installDie(arm, &mems[ai], fm)
			d := install.end()
			if err != nil {
				return fmt.Errorf("arm %v: %w", arm, err)
			}
			if built {
				reset += d
				resets++
			}
			if a, ok := mems[ai].(arrayed); ok {
				a.Array().SetTransient(recoveryDefaults.TransientRate, rng)
			}
			ws.Mem, ws.Recovery = mems[ai], nil
			sp := t.start("memstore.trip."+arm.ID().String(), parent, trial)
			sink += ws.TripValues()[0]
			trip[ai] += sp.end()
			for pi, p := range probePolicies {
				rec := &recs[pi][ai]
				rec.ResetTrial()
				ws.Recovery = rec
				sp := t.start("memstore.checked."+p.name, parent, trial)
				sink += ws.TripValues()[0]
				policyTrip[pi] += sp.end()
			}
			ws.Recovery = nil
		}
	}
	out["fault.draw_us"] = float64(draw) / 1e3 / trials
	if resets > 0 {
		out["mem.reset_us"] = float64(reset) / 1e3 / float64(resets)
	}
	var plain time.Duration
	for ai, arm := range arms {
		out["memstore.trip_us."+arm.ID().String()] = float64(trip[ai]) / 1e3 / trials
		plain += trip[ai]
	}
	out["memstore.policy_trip_us.none"] = float64(plain) / 1e3 / float64(trials*len(arms))
	for pi, p := range probePolicies {
		out["memstore.policy_trip_us."+p.name] = float64(policyTrip[pi]) / 1e3 / float64(trials*len(arms))
	}
	var st memstore.RecoveryStats
	for _, r := range recs[len(recs)-1] {
		st.Merge(r.Stats)
	}
	out["recovery.flagged"] = float64(st.Flagged) / trials
	out["recovery.retries"] = float64(st.Retries) / trials
	out["recovery.restored"] = float64(st.Restored) / trials
	out["recovery.budget_denied"] = float64(st.BudgetDenied) / trials
	if st.Flagged > 0 {
		out["recovery.recovered_ratio"] = float64(st.Recovered) / float64(st.Flagged)
	}
	return nil
}

// probeWorkloads times each probed workload's Prepare, and its warm
// Instance.RunTrial on the nFM=2 arm minus one round trip of the same
// memory — the application's own model fit and score.
func probeWorkloads(seed int64, t *tracer, parent int, out map[string]float64) error {
	const trials = 4
	for _, id := range probeApps {
		name := id.String()
		wl, err := id.Workload()
		if err != nil {
			return err
		}
		ps := seed
		if id == workload.CGRestart {
			ps = cgrestartSeed(seed)
		}
		sp := t.start("workload.prepare."+name, parent, 0)
		inst, err := wl.Prepare(workload.Params{Seed: ps})
		d := sp.end()
		if err != nil {
			return fmt.Errorf("prepare %s: %w", name, err)
		}
		out["workload.prepare_ms."+name] = float64(d) / 1e6
		ws := &workload.Workspace{Codec: memstore.DefaultCodec()}
		inst.StoreOn(ws)
		var m mem.Word32
		var app []float64
		// Trial 0 warms the workspace and is not timed.
		for trial := 0; trial <= trials; trial++ {
			rng := stats.Derive(seed, int64(trial))
			if err := installDie(exp.ProtShuffle2, &m, drawDie(rng)); err != nil {
				return err
			}
			ws.Mem = m
			run := t.start("workload.trial."+name, parent, trial)
			q, err := inst.RunTrial(ws, rng)
			rd := run.end()
			if err != nil {
				return fmt.Errorf("%s trial %d: %w", name, trial, err)
			}
			trip := t.start("memstore.trip.nfm2", parent, trial)
			sink += q + ws.TripValues()[0]
			td := trip.end()
			if trial > 0 {
				app = append(app, float64(rd-td)/1e6)
			}
		}
		out["workload.app_ms."+name] = median(app)
	}
	return nil
}
