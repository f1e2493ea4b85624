package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
	"faultmem/internal/serve"
	"faultmem/internal/sweep"
	"faultmem/internal/wire"
	"faultmem/internal/yield"
)

// sleepExp is a synthetic registry experiment with a controllable shard
// count and per-shard duration, so scheduling tests don't depend on the
// real campaigns' budgets. Shards ride the engine's executor hook, so
// they gate through the server's fair-share scheduler exactly like real
// campaigns.
type sleepExp struct {
	name   string
	shards int
	delay  time.Duration
}

func (e sleepExp) Name() string        { return e.name }
func (e sleepExp) DefaultParams() any  { return &struct{}{} }
func (e sleepExp) Description() string { return "synthetic test campaign" }

func (e sleepExp) Run(ctx context.Context, r *exp.Runner) (*exp.Result, error) {
	env := mc.Env{Ctx: ctx, Tag: e.name}
	if r != nil {
		env.Exec = r.Exec
		if r.Progress != nil {
			sink := r.Progress
			env.OnShard = func(done, total int) {
				sink(exp.Progress{Experiment: e.name, Done: done, Total: total})
			}
		}
	}
	out, err := mc.RunEnv(env, 0, e.shards, 1, func(shard int, rng *rand.Rand) sleepShard {
		select {
		case <-time.After(e.delay):
		case <-ctx.Done():
		}
		return sleepShard(shard)
	})
	if err != nil {
		return nil, err
	}
	t := &exp.Table{Title: e.name, Header: []string{"shards"}}
	t.AddRow(fmt.Sprint(len(out)))
	return &exp.Result{Experiment: e.name, Tables: []*exp.Table{t}}, nil
}

// sleepShard is sleepExp's shard value. Its binary form lets the shards
// travel to workers.
type sleepShard int

func (s sleepShard) AppendBinary(b []byte) ([]byte, error) { return wire.AppendInt(b, int(s)), nil }

func (s *sleepShard) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*s = sleepShard(r.Int())
	return r.Close()
}

func init() {
	exp.Register(sleepExp{name: "sleepy-long", shards: 40, delay: 25 * time.Millisecond})
	exp.Register(sleepExp{name: "sleepy-short", shards: 4, delay: 25 * time.Millisecond})
}

func testConfig(t *testing.T) serve.Config {
	return serve.Config{
		Sweep:         sweep.Config{Lease: 500 * time.Millisecond},
		SnapshotEvery: 10 * time.Millisecond,
		ClientTTL:     time.Second,
		Logf:          t.Logf,
	}
}

func startServer(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(ln, cfg)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dial(t testing.TB, srv *serve.Server, opts serve.Options) *serve.Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	c, err := serve.Dial(ctx, srv.Addr().String(), opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func goldenJSON(t *testing.T, name string) []byte {
	t.Helper()
	seed := int64(7)
	res, err := exp.Run(context.Background(), name, &exp.Runner{Quick: true, Seed: &seed})
	if err != nil {
		t.Fatalf("local %s: %v", name, err)
	}
	j, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func submitAndWait(t testing.TB, c *serve.Client, spec serve.Campaign) *serve.FinalResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.Experiment, err)
	}
	f, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", spec.Experiment, err)
	}
	return f
}

// TestServeByteIdenticalToLocal: the core contract — a campaign
// submitted through the server returns exactly the bytes a direct local
// run produces.
func TestServeByteIdenticalToLocal(t *testing.T) {
	srv := startServer(t, testConfig(t))
	c := dial(t, srv, serve.Options{})
	seed := int64(7)
	f := submitAndWait(t, c, serve.Campaign{Experiment: "fig2", Quick: true, Seed: &seed})
	if f.Err != "" {
		t.Fatalf("job failed: %s", f.Err)
	}
	if want := goldenJSON(t, "fig2"); !bytes.Equal(f.Result, want) {
		t.Fatalf("served result differs from local run:\nserved: %s\nlocal:  %s", f.Result, want)
	}
}

// TestServeConcurrentCampaignsWithWorker: two campaigns in flight at
// once over one pool with a sweep worker attached — both results stay
// byte-identical, and the worker demonstrably computed shards.
func TestServeConcurrentCampaignsWithWorker(t *testing.T) {
	cfg := testConfig(t)
	srv := startServer(t, cfg)

	startWorker(t, srv)

	c := dial(t, srv, serve.Options{})
	var wg sync.WaitGroup
	finals := make([]*serve.FinalResult, 2)
	for i, name := range []string{"fig2", "fig5"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := int64(7)
			finals[i] = submitAndWait(t, c, serve.Campaign{Experiment: name, Quick: true, Seed: &seed})
		}()
	}
	wg.Wait()
	for i, name := range []string{"fig2", "fig5"} {
		if finals[i].Err != "" {
			t.Fatalf("%s failed: %s", name, finals[i].Err)
		}
		if want := goldenJSON(t, name); !bytes.Equal(finals[i].Result, want) {
			t.Errorf("%s served result differs from local run", name)
		}
	}
	if st := srv.PoolStats(); st.RemoteShards == 0 {
		t.Errorf("worker was connected but computed no shards: %+v", st)
	}
}

// startWorker attaches one sweep worker with test-scale clocks to the
// server's pool until test cleanup, and waits for it to join.
func startWorker(t testing.TB, srv *serve.Server) {
	t.Helper()
	want := srv.Workers() + 1
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		sweep.RunWorker(wctx, srv.Addr().String(), sweep.WorkerConfig{
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
			Logf:         t.Logf,
		})
	}()
	t.Cleanup(func() { wcancel(); <-wdone })
	waitWorkers(t, srv, want)
}

func waitWorkers(t testing.TB, srv *serve.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Workers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers joined", srv.Workers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeFairShare: a small campaign submitted after a much larger
// one finishes first, because tickets interleave at shard granularity
// instead of queueing whole campaigns. With a single local ticket a
// FIFO pool would run all 40 long shards before the short job's 4.
func TestServeFairShare(t *testing.T) {
	cfg := testConfig(t)
	cfg.LocalWorkers = 1
	srv := startServer(t, cfg)
	c := dial(t, srv, serve.Options{})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	longID, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-long"})
	if err != nil {
		t.Fatal(err)
	}
	shortID, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-short"})
	if err != nil {
		t.Fatal(err)
	}

	type arrival struct {
		id uint64
		f  *serve.FinalResult
	}
	order := make(chan arrival, 2)
	for _, id := range []uint64{longID, shortID} {
		go func() {
			f, err := c.Wait(ctx, id)
			if err != nil {
				t.Errorf("wait job %d: %v", id, err)
				order <- arrival{id: id}
				return
			}
			order <- arrival{id: id, f: f}
		}()
	}
	first := <-order
	second := <-order
	if first.f == nil || second.f == nil {
		t.Fatal("a job never finished")
	}
	if first.id != shortID {
		t.Fatalf("short campaign (job %d) should finish before the long one (job %d); got job %d first",
			shortID, longID, first.id)
	}
}

// TestServeCancelAndList: cancelling a running job surfaces as a
// cancelled state and an error final; list sees both jobs.
func TestServeCancelAndList(t *testing.T) {
	cfg := testConfig(t)
	cfg.LocalWorkers = 1
	srv := startServer(t, cfg)
	c := dial(t, srv, serve.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	longID, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-long", Label: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, longID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if st.ID != longID {
		t.Fatalf("cancel status names job %d, want %d", st.ID, longID)
	}
	f, err := c.Wait(ctx, longID)
	if err != nil {
		t.Fatal(err)
	}
	if f.Err == "" {
		t.Fatal("cancelled job delivered a clean final")
	}
	st, err = c.Status(ctx, longID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateCancelled {
		t.Fatalf("state = %q, want %q", st.State, serve.StateCancelled)
	}
	if st.Label != "doomed" {
		t.Fatalf("label = %q, want %q", st.Label, "doomed")
	}

	shortF := submitAndWait(t, c, serve.Campaign{Experiment: "sleepy-short"})
	if shortF.Err != "" {
		t.Fatalf("short job failed: %s", shortF.Err)
	}
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list returned %d jobs, want 2", len(list))
	}
	if list[0].ID != longID || list[0].State != serve.StateCancelled {
		t.Fatalf("list[0] = %+v, want cancelled job %d", list[0], longID)
	}
	if list[1].State != serve.StateDone {
		t.Fatalf("list[1].State = %q, want %q", list[1].State, serve.StateDone)
	}

	// Unknown jobs answer with an error, not a hang.
	if _, err := c.Status(ctx, 999); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("status of unknown job: %v", err)
	}
}

// TestServeSnapshots: a running job pushes periodic partial-state
// snapshots with increasing sequence numbers.
func TestServeSnapshots(t *testing.T) {
	cfg := testConfig(t)
	cfg.LocalWorkers = 1
	srv := startServer(t, cfg)

	var mu sync.Mutex
	var snaps []serve.JobSnapshot
	var seqs []uint64
	c := dial(t, srv, serve.Options{OnSnapshot: func(snap serve.JobSnapshot, seq uint64) {
		mu.Lock()
		snaps = append(snaps, snap)
		seqs = append(seqs, seq)
		mu.Unlock()
	}})

	f := submitAndWait(t, c, serve.Campaign{Experiment: "sleepy-long"})
	if f.Err != "" {
		t.Fatalf("job failed: %s", f.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no snapshots arrived for a 1s campaign at a 10ms push period")
	}
	for i, snap := range snaps {
		if snap.State != serve.StateRunning {
			t.Errorf("snapshot %d state = %q, want %q", i, snap.State, serve.StateRunning)
		}
		if i > 0 && seqs[i] <= seqs[i-1] {
			t.Errorf("snapshot seqs not increasing: %v", seqs)
		}
	}
	last := snaps[len(snaps)-1]
	if len(last.Stages) == 0 || last.Stages[0].Done == 0 {
		t.Errorf("final snapshot carries no progress: %+v", last)
	}
}

// TestServeResumeDeliversBufferedFinal: a client that disconnects
// mid-run and resumes by token receives the final computed while it was
// away.
func TestServeResumeDeliversBufferedFinal(t *testing.T) {
	cfg := testConfig(t)
	cfg.ClientTTL = 5 * time.Second
	srv := startServer(t, cfg)
	c1 := dial(t, srv, serve.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	id, err := c1.Submit(ctx, serve.Campaign{Experiment: "sleepy-short"})
	if err != nil {
		t.Fatal(err)
	}
	token := c1.Token()
	c1.Close() // drop mid-run; the session (and the job) lives on

	c2 := dial(t, srv, serve.Options{Token: token})
	if c2.Token() != token {
		t.Fatalf("resumed session token = %q, want %q", c2.Token(), token)
	}
	f, err := c2.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if f.Err != "" {
		t.Fatalf("job failed: %s", f.Err)
	}
	if f.JobID != id {
		t.Fatalf("final names job %d, want %d", f.JobID, id)
	}
}

// TestServeDrain: draining lets the running job finish and deliver its
// final while new submissions are rejected.
func TestServeDrain(t *testing.T) {
	cfg := testConfig(t)
	cfg.LocalWorkers = 1
	srv := startServer(t, cfg)
	c := dial(t, srv, serve.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	id, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-long"})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	// The draining flag is set synchronously at the head of Drain, but
	// give the goroutine a moment to get there.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-short"})
		if err != nil && strings.Contains(err.Error(), "draining") {
			break
		}
		if err != nil {
			t.Fatalf("submit during drain: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions never started being rejected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	f, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if f.Err != "" {
		t.Fatalf("drained job failed: %s", f.Err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeAuth: wrong shared secrets fail the handshake for both
// clients and workers; the right one connects.
func TestServeAuth(t *testing.T) {
	cfg := testConfig(t)
	cfg.AuthToken = "s3cret"
	srv := startServer(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := serve.Dial(ctx, srv.Addr().String(), serve.Options{Auth: "wrong", Logf: t.Logf}); err == nil {
		t.Fatal("dial with a wrong auth token succeeded")
	}
	if _, err := serve.Dial(ctx, srv.Addr().String(), serve.Options{Logf: t.Logf}); err == nil {
		t.Fatal("dial with no auth token succeeded")
	}

	// A worker with the wrong secret is dropped at the handshake and
	// never joins the pool.
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		sweep.RunWorker(wctx, srv.Addr().String(), sweep.WorkerConfig{
			AuthToken:    "wrong",
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 20 * time.Millisecond,
		})
	}()
	time.Sleep(200 * time.Millisecond)
	if n := srv.Workers(); n != 0 {
		t.Fatalf("unauthenticated worker joined the pool (%d connected)", n)
	}
	wcancel()
	<-wdone

	// The right secret works end to end.
	c := dial(t, srv, serve.Options{Auth: "s3cret"})
	wctx2, wcancel2 := context.WithCancel(context.Background())
	wdone2 := make(chan struct{})
	go func() {
		defer close(wdone2)
		sweep.RunWorker(wctx2, srv.Addr().String(), sweep.WorkerConfig{
			AuthToken:    "s3cret",
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
			Logf:         t.Logf,
		})
	}()
	t.Cleanup(func() { wcancel2(); <-wdone2 })
	waitWorkers(t, srv, 1)
	f := submitAndWait(t, c, serve.Campaign{Experiment: "sleepy-short"})
	if f.Err != "" {
		t.Fatalf("authenticated job failed: %s", f.Err)
	}
}

// TestServeLongStrings: strings on the wire have no length cap. A server
// whose shared secret is 300 bytes admits a client and a worker that
// present it, and a 300-byte label is admitted and echoed by List.
func TestServeLongStrings(t *testing.T) {
	cfg := testConfig(t)
	cfg.AuthToken = strings.Repeat("s", 300)
	srv := startServer(t, cfg)
	c := dial(t, srv, serve.Options{Auth: cfg.AuthToken})

	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		sweep.RunWorker(wctx, srv.Addr().String(), sweep.WorkerConfig{
			AuthToken:    cfg.AuthToken,
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
			Logf:         t.Logf,
		})
	}()
	t.Cleanup(func() { wcancel(); <-wdone })
	waitWorkers(t, srv, 1)

	label := strings.Repeat("l", 300)
	if f := submitAndWait(t, c, serve.Campaign{Experiment: "sleepy-short", Label: label}); f.Err != "" {
		t.Fatalf("job with a long label failed: %s", f.Err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Label != label {
		t.Fatalf("list = %+v, want one job with the 300-byte label", list)
	}
}

// TestServeRejectsUnknownExperiment: submissions of unregistered names
// fail loudly with the registry vocabulary.
func TestServeRejectsUnknownExperiment(t *testing.T) {
	srv := startServer(t, testConfig(t))
	c := dial(t, srv, serve.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.Submit(ctx, serve.Campaign{Experiment: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("submit of unknown experiment: %v", err)
	}
}

// TestServeCloseWithConnectedWorker: closing (or draining) the server
// while a worker is still attached must terminate — the pool owns the
// worker connections, and Close has to drop them before waiting out the
// demux goroutines parked in their session loops.
func TestServeCloseWithConnectedWorker(t *testing.T) {
	srv := startServer(t, testConfig(t))
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		sweep.RunWorker(wctx, srv.Addr().String(), sweep.WorkerConfig{
			ReconnectMin: 10 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
			Logf:         t.Logf,
		})
	}()
	defer func() { wcancel(); <-wdone }()
	waitWorkers(t, srv, 1)

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("server shutdown deadlocked with a worker still connected")
	}
}

// TestServeWorkerJoinsMidRun: the byte-identity contract holds when a
// sweep worker joins while a campaign is already in flight — the pool
// widens, remote shards contribute, and the result bytes do not move.
func TestServeWorkerJoinsMidRun(t *testing.T) {
	cfg := testConfig(t)
	// One local ticket keeps the 40×25ms campaign in flight (~1s) long
	// past the worker's join, which lands within milliseconds.
	cfg.LocalWorkers = 1
	srv := startServer(t, cfg)
	c := dial(t, srv, serve.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	seed := int64(7)
	id, err := c.Submit(ctx, serve.Campaign{Experiment: "sleepy-long", Quick: true, Seed: &seed})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	startWorker(t, srv)

	f, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if f.Err != "" {
		t.Fatalf("job failed: %s", f.Err)
	}
	if want := goldenJSON(t, "sleepy-long"); !bytes.Equal(f.Result, want) {
		t.Fatalf("mid-run worker join changed the result bytes")
	}
	if st := srv.PoolStats(); st.RemoteShards == 0 {
		t.Errorf("worker joined mid-run but computed no shards: %+v", st)
	}
}

// TestServeBadFig5ParamsFailOnlyTheirJob: params an experiment cannot
// run (for Fig. 5 a zero Trun, a bin count or row count past its cap, an
// exact-store budget past its cap; for every other experiment an empty
// macro, die or trial budget, a zero sweep step, more faults than cells,
// an app fig7 does not plot) end their own job with an error final,
// while a good campaign running alongside completes with the bytes of a
// local run — the server survives them.
func TestServeBadFig5ParamsFailOnlyTheirJob(t *testing.T) {
	srv := startServer(t, testConfig(t))
	c := dial(t, srv, serve.Options{})
	seed := int64(7)
	specs := []serve.Campaign{
		{Experiment: "fig5", Quick: true, Seed: &seed},
		{Experiment: "fig5", Params: []byte(`{"CDF":{"Trun":0}}`)},
		{Experiment: "fig5", Quick: true, Accum: yield.AccumHist, Bins: 1 << 30},
		{Experiment: "pareto", Params: []byte(`{"CDF":{"Rows":0}}`)},
		{Experiment: "fig5", Quick: true, Params: []byte(`{"CDF":{"Rows":10000000000}}`)},
		{Experiment: "fig5", Params: []byte(`{"CDF":{"Trun":1e9,"MaxPerCount":0,"Accum":1}}`)},
		{Experiment: "fig2", Quick: true, Params: []byte(`{"Step":0}`)},
		{Experiment: "energy", Quick: true, Params: []byte(`{"Dies":0}`)},
		{Experiment: "energy", Quick: true, Params: []byte(`{"Rows":0}`)},
		{Experiment: "redundancy", Quick: true, Params: []byte(`{"Dies":0}`)},
		{Experiment: "fig6", Params: []byte(`{"Rows":0}`)},
		{Experiment: "width", Params: []byte(`{"Rows":0}`)},
		{Experiment: "ablate-lut", Params: []byte(`{"Rows":0}`)},
		{Experiment: "bistcov", Quick: true, Params: []byte(`{"Rows":0}`)},
		{Experiment: "bistcov", Quick: true, Params: []byte(`{"StaticFaults":5000}`)},
		{Experiment: "bistcov", Quick: true, Params: []byte(`{"Couplings":4096}`)},
		{Experiment: "ablate-multifault", Quick: true, Params: []byte(`{"Trials":0}`)},
		{Experiment: "ablate-transient", Params: []byte(`{"Rates":[2]}`)},
		{Experiment: "ablate-transient", Params: []byte(`{"Rates":[-0.5]}`)},
		{Experiment: "ablate-transient", Params: []byte(`{"Pcell":2}`)},
		{Experiment: "workloads", Quick: true, Params: []byte(`{"Rows":0}`)},
		{Experiment: "workloads", Quick: true, Params: []byte(`{"Trials":0}`)},
		{Experiment: "fig7", Quick: true, Params: []byte(`[{"App":4,"Rows":4096,"Pcell":0.001,"Trials":8}]`)},
	}
	finals := make([]*serve.FinalResult, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finals[i] = submitAndWait(t, c, specs[i])
		}()
	}
	wg.Wait()
	if finals[0].Err != "" {
		t.Fatalf("good campaign failed: %s", finals[0].Err)
	}
	if want := goldenJSON(t, "fig5"); !bytes.Equal(finals[0].Result, want) {
		t.Errorf("good campaign's served result differs from local run")
	}
	for i, f := range finals[1:] {
		if f.Err == "" {
			t.Errorf("bad campaign %d (%s %s) finished without an error", i+1, specs[i+1].Experiment, specs[i+1].Params)
		}
	}
	// The server still takes work.
	if f := submitAndWait(t, c, serve.Campaign{Experiment: "fig2", Quick: true, Seed: &seed}); f.Err != "" {
		t.Fatalf("campaign after the bad ones failed: %s", f.Err)
	}
}

// TestServeDuplicateFig7AppFailsOnlyItsJob: a fig7 campaign naming one
// app twice would open two engine runs under one tag, and a worker
// replaying the second would hand back the first's shards. It ends its
// own job with an error final naming the app, while a multi-stage
// campaign alongside is computed entirely by a worker replaying one
// stage per job, and returns the bytes of a local run.
func TestServeDuplicateFig7AppFailsOnlyItsJob(t *testing.T) {
	srv := startServer(t, testConfig(t))
	startWorker(t, srv)
	c := dial(t, srv, serve.Options{})
	seed := int64(7)
	specs := []serve.Campaign{
		{Experiment: "recovery", Quick: true, Seed: &seed},
		{Experiment: "fig7", Params: []byte(`[{"App":2,"Rows":4096,"Pcell":0.001,"Trials":8},{"App":2,"Rows":4096,"Pcell":0.0001,"Trials":8}]`)},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ids := make([]uint64, len(specs))
	for i, spec := range specs {
		id, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Experiment, err)
		}
		ids[i] = id
	}
	finals := make([]*serve.FinalResult, len(specs))
	for i, id := range ids {
		f, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", specs[i].Experiment, err)
		}
		finals[i] = f
	}
	if finals[0].Err != "" {
		t.Fatalf("good campaign failed: %s", finals[0].Err)
	}
	if want := goldenJSON(t, "recovery"); !bytes.Equal(finals[0].Result, want) {
		t.Errorf("served recovery differs from local run")
	}
	if !strings.Contains(finals[1].Err, `duplicate app "knn"`) {
		t.Errorf("repeated fig7 app: final error %q, want a duplicate app \"knn\" error", finals[1].Err)
	}
	if st := srv.PoolStats(); st.RemoteShards == 0 || st.JobErrors != 0 || st.LocalShards != 0 {
		t.Errorf("recovery stages must all be computed by the worker: %+v", st)
	}
}
