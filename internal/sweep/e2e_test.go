package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
	"faultmem/internal/serve"
	"faultmem/internal/sweep"
	"faultmem/internal/sweep/chaostest"
	"faultmem/internal/wire"
)

// testLease is the churn clock shrunk to test scale: leases expire in
// hundreds of milliseconds, so workers heartbeat every 100 ms and drop a
// link silent for 400 ms; reconnects take tens.
const testLease = 300 * time.Millisecond

func testConfig(t *testing.T) sweep.Config {
	return sweep.Config{Lease: testLease, Logf: t.Logf}
}

func testWorkerConfig(t *testing.T) sweep.WorkerConfig {
	return sweep.WorkerConfig{
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
		Logf:         t.Logf,
	}
}

// startCoordinator starts the coordinator the e2e cases drive: a
// campaign server, the one listener in front of the shard pool.
func startCoordinator(t *testing.T) *serve.Server {
	t.Helper()
	return startCoordinatorWith(t, testConfig(t))
}

// startCoordinatorWith is startCoordinator with the pool's config.
func startCoordinatorWith(t *testing.T, cfg sweep.Config) *serve.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := serve.NewServer(ln, serve.Config{Sweep: cfg})
	t.Cleanup(func() { c.Close() })
	return c
}

// runDistributed runs one campaign in-process with its shards on the
// server's worker pool.
func runDistributed(ctx context.Context, c *serve.Server, name string, r *exp.Runner) (*exp.Result, error) {
	rc, err := c.Runner(r)
	if err != nil {
		return nil, err
	}
	return exp.Run(ctx, name, rc)
}

// startWorker runs one worker until killed (or test cleanup). The
// returned kill closes its context and waits for it to exit — a hard
// worker death as far as the coordinator can tell.
func startWorker(t *testing.T, addr string) (kill func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sweep.RunWorker(ctx, addr, testWorkerConfig(t))
	}()
	var once sync.Once
	kill = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(kill)
	return kill
}

// testRunner is the campaign every e2e test runs: a pinned seed so the
// local golden and the distributed run describe the same draw, quick
// budgets so churn dominates runtime.
func testRunner() *exp.Runner {
	seed := int64(7)
	return &exp.Runner{Quick: true, Seed: &seed}
}

// goldenJSON is the single-host truth the distributed runs must match
// bit for bit.
func goldenJSON(t *testing.T, name string) []byte {
	t.Helper()
	res, err := exp.Run(context.Background(), name, testRunner())
	if err != nil {
		t.Fatalf("local %s: %v", name, err)
	}
	j, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func distributedJSON(t *testing.T, c *serve.Server, name string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := runDistributed(ctx, c, name, testRunner())
	if err != nil {
		t.Fatalf("distributed %s: %v", name, err)
	}
	j, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestDistributedRunIsBitIdenticalToLocal: the baseline contract — three
// healthy workers, shards computed remotely, output equal to the
// single-host run byte for byte.
func TestDistributedRunIsBitIdenticalToLocal(t *testing.T) {
	c := startCoordinator(t)
	for i := 0; i < 3; i++ {
		startWorker(t, c.Addr().String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 3); err != nil {
		t.Fatal(err)
	}

	got := distributedJSON(t, c, "fig5")
	want := goldenJSON(t, "fig5")
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed output diverged from single-host run\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	st := c.PoolStats()
	if st.RemoteShards == 0 {
		t.Fatalf("no shards were computed remotely: %+v", st)
	}
	if st.LocalShards != 0 {
		t.Logf("note: %d shards fell back to local", st.LocalShards)
	}
}

// TestWorkerKilledMidCampaign: a worker dying with shards leased must
// not lose, duplicate, or reorder anything — the leases expire, the
// shards reassign, and the output stays bit-identical.
func TestWorkerKilledMidCampaign(t *testing.T) {
	c := startCoordinator(t)
	kill := startWorker(t, c.Addr().String())
	startWorker(t, c.Addr().String())
	startWorker(t, c.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 3); err != nil {
		t.Fatal(err)
	}

	// Kill one worker shortly after the campaign starts, while it almost
	// certainly holds leases.
	timer := time.AfterFunc(30*time.Millisecond, kill)
	defer timer.Stop()
	got := distributedJSON(t, c, "fig5")

	if want := goldenJSON(t, "fig5"); !bytes.Equal(got, want) {
		t.Fatal("output diverged after mid-campaign worker death")
	}
	if st := c.PoolStats(); st.RemoteShards == 0 {
		t.Fatalf("no shards were computed remotely: %+v", st)
	}
}

// TestAllWorkersKilledFallsBackToLocal: when the whole pool dies
// mid-campaign the coordinator must finish the sweep itself, still
// bit-identically. The campaign's own progress times the kill: the
// first shard job runs alone, the pool dies once its result is back,
// and only then are the other shards released to the dead pool.
func TestAllWorkersKilledFallsBackToLocal(t *testing.T) {
	c := startCoordinator(t)
	kills := []func(){
		startWorker(t, c.Addr().String()),
		startWorker(t, c.Addr().String()),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	r, err := c.Runner(testRunner())
	if err != nil {
		t.Fatal(err)
	}
	poolExec := r.Exec
	var first atomic.Bool
	poolGone := make(chan struct{})
	r.Exec = func(sj mc.ShardJob) (any, error) {
		if first.CompareAndSwap(false, true) {
			v, err := poolExec(sj)
			for _, kill := range kills {
				kill()
			}
			close(poolGone)
			return v, err
		}
		select {
		case <-poolGone:
		case <-sj.Ctx.Done():
			return nil, sj.Ctx.Err()
		}
		return poolExec(sj)
	}
	res, err := exp.Run(ctx, "fig5", r)
	if err != nil {
		t.Fatalf("distributed fig5: %v", err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}

	if want := goldenJSON(t, "fig5"); !bytes.Equal(got, want) {
		t.Fatal("output diverged after total pool loss")
	}
	st := c.PoolStats()
	if st.RemoteShards == 0 {
		t.Fatalf("the first shard did not run remotely: %+v", st)
	}
	if st.LocalShards == 0 {
		// Every shard after the first was released to a dead pool.
		t.Fatalf("expected local fallback shards after pool drain: %+v", st)
	}
}

// TestNoWorkersRunsLocally: a coordinator with an empty pool degrades to
// a plain local run.
func TestNoWorkersRunsLocally(t *testing.T) {
	c := startCoordinator(t)
	got := distributedJSON(t, c, "fig5")
	if want := goldenJSON(t, "fig5"); !bytes.Equal(got, want) {
		t.Fatal("workerless coordinator output diverged from plain local run")
	}
	st := c.PoolStats()
	if st.RemoteShards != 0 || st.LocalShards == 0 {
		t.Fatalf("expected pure local execution: %+v", st)
	}
}

// TestChaosDropDupCorrupt: workers behind a seeded chaos proxy that
// drops, duplicates, delays, and corrupts frames. Whatever the weather
// does, the output must stay bit-identical — corrupt frames rejected,
// duplicates deduplicated, drops absorbed by lease reassignment.
func TestChaosDropDupCorrupt(t *testing.T) {
	c := startCoordinator(t)
	chaos := &chaostest.RandomChaos{
		Seed:     42,
		PDrop:    0.05,
		PDup:     0.10,
		PCorrupt: 0.10,
		PDelay:   0.20,
		MaxDelay: 5 * time.Millisecond,
	}
	proxy, err := chaostest.New(c.Addr().String(), chaos.Policy())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	startWorker(t, proxy.Addr())
	startWorker(t, proxy.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	got := distributedJSON(t, c, "fig5")
	if want := goldenJSON(t, "fig5"); !bytes.Equal(got, want) {
		t.Fatal("output diverged under frame chaos")
	}
	t.Logf("chaos stats: %+v", c.PoolStats())
}

// TestHardDisconnectResume: the proxy kills the worker's connection by
// desynchronizing the stream every few frames. The worker must reconnect,
// re-deliver results computed while disconnected, and the campaign must
// still match the golden run.
func TestHardDisconnectResume(t *testing.T) {
	c := startCoordinator(t)
	policy := func(dir chaostest.Dir, n int, frame []byte) chaostest.Verdict {
		// Corrupt the stream toward the worker after a handful of frames
		// on every connection: a rolling sequence of hard disconnects.
		if dir == chaostest.ToClient && n == 6 {
			return chaostest.Verdict{Action: chaostest.CorruptHeader}
		}
		return chaostest.Verdict{}
	}
	proxy, err := chaostest.New(c.Addr().String(), policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	startWorker(t, proxy.Addr())
	startWorker(t, proxy.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	got := distributedJSON(t, c, "fig5")
	if want := goldenJSON(t, "fig5"); !bytes.Equal(got, want) {
		t.Fatal("output diverged across forced reconnects")
	}
	t.Logf("resume stats: %+v", c.PoolStats())
}

// helloWorker opens a protocol-level worker connection: it sends a plain
// Hello and requires a Welcome carrying the coordinator's lease.
func helloWorker(t *testing.T, c *serve.Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := sweep.WriteMessage(conn, &sweep.Hello{}); err != nil {
		t.Fatal(err)
	}
	m := readMessage(t, conn)
	if w, ok := m.(*sweep.Welcome); !ok || w.Lease != testLease {
		t.Fatalf("handshake answered with %T %+v, want a Welcome with lease %v", m, m, testLease)
	}
	return conn
}

// readMessage reads and decodes one frame from conn.
func readMessage(t *testing.T, conn net.Conn) sweep.Message {
	t.Helper()
	mt, _, payload, err := sweep.ReadFrame(conn, sweep.MaxFramePayload)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	m, err := sweep.DecodeMessage(mt, payload)
	if err != nil {
		t.Fatalf("decode %v: %v", mt, err)
	}
	return m
}

// TestLeaseAdoptedAcrossReconnect: a worker whose connection drops while
// it computes a shard keeps the shard through its next connection. A
// protocol-level worker takes the only job of oneshard, hangs up,
// reconnects with a plain Hello and heartbeats the job for more than
// three leases before it sends the result. Its heartbeats on the new
// connection adopt the job, so the job is never reassigned, and the
// campaign matches the single-host run.
func TestLeaseAdoptedAcrossReconnect(t *testing.T) {
	c := startCoordinator(t)
	// The shard's bytes, as a real worker computes them.
	var data []byte
	r := testRunner()
	r.Exec = func(sj mc.ShardJob) (any, error) {
		v := sj.Run()
		b, err := sj.Encode(v)
		data = b
		return v, err
	}
	if _, err := exp.Run(context.Background(), "oneshard", r); err != nil {
		t.Fatal(err)
	}

	conn := helloWorker(t, c)
	type outcome struct {
		res *exp.Result
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		res, err := runDistributed(ctx, c, "oneshard", testRunner())
		ran <- outcome{res, err}
	}()
	m := readMessage(t, conn)
	job, ok := m.(*sweep.Job)
	if !ok {
		t.Fatalf("the worker was sent %T, want its job", m)
	}
	conn.Close()

	conn = helloWorker(t, c)
	go io.Copy(io.Discard, conn) // the pongs
	tick := time.NewTicker(testLease / 3)
	defer tick.Stop()
	for end := time.Now().Add(4 * testLease); time.Now().Before(end); <-tick.C {
		if err := sweep.WriteMessage(conn, &sweep.Heartbeat{InFlight: []uint64{job.ID}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sweep.WriteMessage(conn, &sweep.Result{ID: job.ID, Shard: job.Shard, Data: data}); err != nil {
		t.Fatal(err)
	}

	out := <-ran
	if out.err != nil {
		t.Fatalf("distributed oneshard: %v", out.err)
	}
	got, err := out.res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenJSON(t, "oneshard"); !bytes.Equal(got, want) {
		t.Fatalf("output diverged across the reconnect:\n%s\n%s", got, want)
	}
	if st := c.PoolStats(); st.Reassigned != 0 || st.RemoteShards != 1 || st.LocalShards != 0 {
		t.Fatalf("want the shard remote once and never reassigned: %+v", st)
	}
}

// TestTruncatedMidFrameConnection: a connection cut mid-frame (a crash
// during a write) must not corrupt the campaign.
func TestTruncatedMidFrameConnection(t *testing.T) {
	c := startCoordinator(t)
	policy := func(dir chaostest.Dir, n int, frame []byte) chaostest.Verdict {
		if dir == chaostest.ToServer && n == 4 {
			return chaostest.Verdict{Action: chaostest.Truncate}
		}
		return chaostest.Verdict{}
	}
	proxy, err := chaostest.New(c.Addr().String(), policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	startWorker(t, proxy.Addr())
	// A second worker on a clean link keeps the campaign from depending
	// entirely on the flaky one.
	startWorker(t, c.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	got := distributedJSON(t, c, "fig5")
	if want := goldenJSON(t, "fig5"); !bytes.Equal(got, want) {
		t.Fatal("output diverged across a mid-frame connection cut")
	}
}

// TestDistributedMultiStageExperiment: fig7 runs one engine stage per
// benchmark app with machine-dependent plans. Its shard output has a
// binary form, so every stage's shards must encode and travel — a
// healthy pool may not degrade a single shard to local compute (that
// used to be fig7's fate back when its shard type was unexported and
// every stage tag got JobError-poisoned). The params override exercises
// the params-on-the-wire plumbing and trims the budget: two apps at a
// handful of trials instead of three at the full quick tier.
func TestDistributedMultiStageExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-stage distributed run is the slowest e2e case")
	}
	params := json.RawMessage(`[{"App": 0, "Trials": 8, "Rows": 256}, {"App": 2, "Trials": 8, "Rows": 256}]`)
	runner := func() *exp.Runner {
		r := testRunner()
		r.Params = params
		return r
	}

	c := startCoordinator(t)
	for i := 0; i < 3; i++ {
		startWorker(t, c.Addr().String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 3); err != nil {
		t.Fatal(err)
	}

	res, err := runDistributed(ctx, c, "fig7", runner())
	if err != nil {
		t.Fatalf("distributed fig7: %v", err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}

	localRes, err := exp.Run(context.Background(), "fig7", runner())
	if err != nil {
		t.Fatalf("local fig7: %v", err)
	}
	want, err := localRes.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("multi-stage distributed output diverged from single-host run")
	}
	st := c.PoolStats()
	if st.RemoteShards == 0 {
		t.Fatalf("no fig7 shards were computed remotely: %+v", st)
	}
	if st.JobErrors != 0 || st.LocalShards != 0 {
		t.Fatalf("fig7 stages must distribute fully on a healthy pool, not degrade to local: %+v", st)
	}
}

// TestDistributedWorkloadsCampaign extends the zero-local-fallback
// contract to the workloads campaign from day one: its shard output,
// workload.ShardOut, has a binary form, so every per-workload stage
// must travel to a healthy pool with no JobError tag-poisoning and no
// local degradation, and the merged result must match the single-host
// run byte for byte.
func TestDistributedWorkloadsCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed workloads run is a slower e2e case")
	}
	params := json.RawMessage(`{"Workloads": ["rsort", "cgsolve"], "Trials": 8, "Rows": 256, "Keys": 1024, "Dim": 24}`)
	runner := func() *exp.Runner {
		r := testRunner()
		r.Params = params
		return r
	}

	c := startCoordinator(t)
	for i := 0; i < 3; i++ {
		startWorker(t, c.Addr().String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 3); err != nil {
		t.Fatal(err)
	}

	res, err := runDistributed(ctx, c, "workloads", runner())
	if err != nil {
		t.Fatalf("distributed workloads: %v", err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}

	localRes, err := exp.Run(context.Background(), "workloads", runner())
	if err != nil {
		t.Fatalf("local workloads: %v", err)
	}
	want, err := localRes.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("distributed workloads output diverged from single-host run")
	}
	st := c.PoolStats()
	if st.RemoteShards == 0 {
		t.Fatalf("no workloads shards were computed remotely: %+v", st)
	}
	if st.JobErrors != 0 || st.LocalShards != 0 {
		t.Fatalf("workloads stages must distribute fully on a healthy pool, not degrade to local: %+v", st)
	}
}

// recoveryE2EParams is the small-budget recovery campaign the e2e cases
// run: all three policies with soft errors enabled, so the shard
// outputs carry non-empty per-arm recovery counters over the wire.
var recoveryE2EParams = json.RawMessage(
	`{"Workload": "cgsolve", "Trials": 6, "Rows": 256, "Dim": 24, "TransientRate": 0.001, "SafeWords": 64}`)

func recoveryRunner() *exp.Runner {
	r := testRunner()
	r.Params = recoveryE2EParams
	return r
}

// TestDistributedRecoveryCampaign extends the zero-local-fallback
// contract to the recovery campaign: its shard output is the same
// workload.ShardOut, now carrying per-arm recovery counters, so every
// per-policy stage must travel to a healthy pool with no JobError
// tag-poisoning and no local degradation, and the merged result —
// counter tables included — must match the single-host run byte for
// byte.
func TestDistributedRecoveryCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed recovery run is a slower e2e case")
	}
	c := startCoordinator(t)
	for i := 0; i < 3; i++ {
		startWorker(t, c.Addr().String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 3); err != nil {
		t.Fatal(err)
	}

	res, err := runDistributed(ctx, c, "recovery", recoveryRunner())
	if err != nil {
		t.Fatalf("distributed recovery: %v", err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}

	localRes, err := exp.Run(context.Background(), "recovery", recoveryRunner())
	if err != nil {
		t.Fatalf("local recovery: %v", err)
	}
	want, err := localRes.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("distributed recovery output diverged from single-host run")
	}
	st := c.PoolStats()
	if st.RemoteShards == 0 {
		t.Fatalf("no recovery shards were computed remotely: %+v", st)
	}
	if st.JobErrors != 0 || st.LocalShards != 0 {
		t.Fatalf("recovery stages must distribute fully on a healthy pool, not degrade to local: %+v", st)
	}
}

// TestRecoveryWorkerKilledMidCampaign: a worker dying while it holds
// recovery-campaign leases must not lose, duplicate, or reorder
// anything — including the per-arm recovery counters merged from shard
// outputs, which would silently drift if a shard were double-counted.
func TestRecoveryWorkerKilledMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed recovery run is a slower e2e case")
	}
	c := startCoordinator(t)
	kill := startWorker(t, c.Addr().String())
	startWorker(t, c.Addr().String())
	startWorker(t, c.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 3); err != nil {
		t.Fatal(err)
	}

	timer := time.AfterFunc(30*time.Millisecond, kill)
	defer timer.Stop()
	res, err := runDistributed(ctx, c, "recovery", recoveryRunner())
	if err != nil {
		t.Fatalf("distributed recovery: %v", err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}

	localRes, err := exp.Run(context.Background(), "recovery", recoveryRunner())
	if err != nil {
		t.Fatalf("local recovery: %v", err)
	}
	want, err := localRes.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovery output diverged after mid-campaign worker death")
	}
	if st := c.PoolStats(); st.RemoteShards == 0 {
		t.Fatalf("no recovery shards were computed remotely: %+v", st)
	}
}

// TestJobErrorPoisonsTagToLocal: a protocol-level worker that fails
// every job it is handed drives the JobError → poisoned tag →
// local-compute degradation end to end. (The organic driver went away:
// fig7's shard output is wireable now, so a real worker never refuses
// its stages.) The campaign must still finish bit-identically, with
// zero remote shards merged from the lying worker. The worker also
// fails the jobs it was handed before the coordinator moved their run
// local: those JobErrors are counted, but only the first one of each
// tag logs and reroutes.
func TestJobErrorPoisonsTagToLocal(t *testing.T) {
	var (
		mu      sync.Mutex
		poisons = map[string]int{}
	)
	poisoned := regexp.MustCompile(`worker failed shard \d+ of (.+) \(synthetic failure\); computing that run locally$`)
	cfg := testConfig(t)
	cfg.Logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if m := poisoned.FindStringSubmatch(line); m != nil {
			mu.Lock()
			poisons[m[1]]++
			mu.Unlock()
		}
		t.Log(line)
	}
	c := startCoordinatorWith(t, cfg)
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := sweep.WriteMessage(conn, &sweep.Hello{}); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := sweep.ReadFrame(conn, sweep.MaxFramePayload)
	if err != nil || typ != sweep.MsgWelcome {
		t.Fatalf("handshake got %v, %v; want welcome", typ, err)
	}
	var failed atomic.Uint64 // JobError frames written
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			typ, _, payload, err := sweep.ReadFrame(conn, sweep.MaxFramePayload)
			var fe *sweep.FrameError
			if err != nil {
				if !errors.As(err, &fe) || fe.Fatal {
					return
				}
				continue
			}
			m, err := sweep.DecodeMessage(typ, payload)
			if err != nil {
				continue
			}
			if j, ok := m.(*sweep.Job); ok {
				if sweep.WriteMessage(conn, &sweep.JobError{ID: j.ID, Msg: "synthetic failure"}) == nil {
					failed.Add(1)
				}
			}
		}
	}()

	got := distributedJSON(t, c, "fig5")
	if want := goldenJSON(t, "fig5"); !bytes.Equal(got, want) {
		t.Fatal("output diverged after JobError degradation")
	}
	// Stop the fake worker so the count of frames it wrote is final, then
	// let the coordinator drain what it has not read yet.
	conn.Close()
	<-readerDone
	st := c.PoolStats()
	for deadline := time.Now().Add(10 * time.Second); st.JobErrors != failed.Load() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		st = c.PoolStats()
	}
	if st.JobErrors != failed.Load() {
		t.Errorf("Stats.JobErrors = %d, the worker wrote %d JobError frames", st.JobErrors, failed.Load())
	}
	if st.JobErrors == 0 || st.LocalShards == 0 {
		t.Fatalf("expected JobError-driven local degradation: %+v", st)
	}
	if st.RemoteShards != 0 {
		t.Fatalf("a worker that failed every job cannot have produced results: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(poisons) == 0 {
		t.Fatal("no tag was logged as poisoned")
	}
	for tag, n := range poisons {
		if n != 1 {
			t.Errorf("tag %s: %d \"computing that run locally\" lines, want 1", tag, n)
		}
	}
}

// twoStageExp is a registry experiment with two engine runs that does
// not skip the other stage in a stage-only replay — what any experiment
// outside the registry's own looks like. Its stage b therefore cannot be
// replayed alone.
type twoStageExp struct{}

func (twoStageExp) Name() string       { return "twostage" }
func (twoStageExp) DefaultParams() any { return &struct{}{} }

func (twoStageExp) Run(ctx context.Context, r *exp.Runner) (*exp.Result, error) {
	t := &exp.Table{Title: "twostage", Header: []string{"stage", "sum"}}
	for i, stage := range []string{"a", "b"} {
		env := mc.Env{Ctx: ctx, Tag: "twostage/" + stage}
		if r != nil {
			env.Exec = r.Exec
		}
		out, err := mc.RunEnv(env, 0, 4, int64(i), func(shard int, rng *rand.Rand) stageShard {
			return stageShard(rng.Int63n(1000))
		})
		if err != nil {
			return nil, err
		}
		var sum stageShard
		for _, v := range out {
			sum += v
		}
		t.AddRow(stage, fmt.Sprint(sum))
	}
	return &exp.Result{Experiment: "twostage", Tables: []*exp.Table{t}}, nil
}

// stageShard is twostage's shard value. Its binary form lets the shards
// travel to workers.
type stageShard int

func (s stageShard) AppendBinary(b []byte) ([]byte, error) { return wire.AppendInt(b, int(s)), nil }

func (s *stageShard) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*s = stageShard(r.Int())
	return r.Close()
}

// oneShardExp is a registry experiment whose campaign is one engine run
// of one shard, so a test can hold that shard's lease by hand.
type oneShardExp struct{}

func (oneShardExp) Name() string       { return "oneshard" }
func (oneShardExp) DefaultParams() any { return &struct{}{} }

func (oneShardExp) Run(ctx context.Context, r *exp.Runner) (*exp.Result, error) {
	env := mc.Env{Ctx: ctx, Tag: "oneshard"}
	if r != nil {
		env.Exec = r.Exec
	}
	out, err := mc.RunEnv(env, 0, 1, 11, func(_ int, rng *rand.Rand) stageShard {
		return stageShard(rng.Int63n(1000))
	})
	if err != nil {
		return nil, err
	}
	t := &exp.Table{Title: "oneshard", Header: []string{"value"}}
	t.AddRow(fmt.Sprint(out[0]))
	return &exp.Result{Experiment: "oneshard", Tables: []*exp.Table{t}}, nil
}

func init() {
	exp.Register(twoStageExp{})
	exp.Register(oneShardExp{})
}

// TestNonSkippingStageFallsBackToLocal: a worker's replay of stage b of
// twostage opens stage a first, which a stage-only replay refuses as a
// JobError, and the coordinator computes that stage locally. Stage a
// still travels, and the result matches the single-host run.
func TestNonSkippingStageFallsBackToLocal(t *testing.T) {
	c := startCoordinator(t)
	for i := 0; i < 2; i++ {
		startWorker(t, c.Addr().String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.AwaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := distributedJSON(t, c, "twostage"), goldenJSON(t, "twostage"); !bytes.Equal(got, want) {
		t.Fatalf("distributed twostage diverged from the single-host run:\n%s\n%s", got, want)
	}
	if st := c.PoolStats(); st.JobErrors == 0 || st.RemoteShards != 4 || st.LocalShards != 4 {
		t.Fatalf("want stage a remote (4 shards) and stage b local (4 shards) after a JobError: %+v", st)
	}
}

// TestCancelledCampaignReleasesPromptly: killing the campaign context
// must unwind the distributed run quickly, not hang on in-flight leases.
func TestCancelledCampaignReleasesPromptly(t *testing.T) {
	c := startCoordinator(t)
	startWorker(t, c.Addr().String())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := runDistributed(ctx, c, "fig5", testRunner())
	if err == nil {
		// The run can legitimately win the race and finish; only a hang
		// is a failure.
		return
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled campaign took %v to unwind", elapsed)
	}
}

// corruptFrame returns m framed with its checksum broken: a complete,
// well-delimited frame every receiver must reject and skip.
func corruptFrame(m sweep.Message) []byte {
	var b bytes.Buffer
	sweep.WriteMessage(&b, m) // a bytes.Buffer takes every write
	frame := b.Bytes()
	frame[8] ^= 0xff // the first byte of the CRC-32
	return frame
}

// TestCorruptFrameKeepsWorkerSession: a checksum-corrupt frame on a
// live worker connection is counted in FramesRejected and skipped, and
// the next frame on the same connection is still served (a heartbeat
// gets its pong).
func TestCorruptFrameKeepsWorkerSession(t *testing.T) {
	c := startCoordinator(t)
	conn := helloWorker(t, c)
	if _, err := conn.Write(corruptFrame(&sweep.Heartbeat{})); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteMessage(conn, &sweep.Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	if m, ok := readMessage(t, conn).(*sweep.Heartbeat); !ok {
		t.Fatalf("heartbeat after a corrupt frame answered with %T", m)
	}
	if got := c.PoolStats().FramesRejected; got != 1 {
		t.Errorf("FramesRejected = %d, want 1", got)
	}
}
