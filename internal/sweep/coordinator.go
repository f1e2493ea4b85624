package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
)

// Config tunes the coordinator's fault-tolerance clock. The zero value
// selects production defaults; tests shrink everything to milliseconds.
type Config struct {
	// Lease is how long a dispatched shard may go without a heartbeat
	// from its worker before it is reassigned (default 3s, at least
	// 1ms). Workers learn it in the Welcome and heartbeat every third of
	// it; a worker connection silent for two leases is dropped.
	Lease time.Duration
	// Logf, when non-nil, receives one line per robustness event
	// (reassignments, rejected frames, worker churn).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 3 * time.Second
	}
	c.Lease = max(c.Lease, minLease)
	return c
}

// maxRemoteAttempts bounds how many times one shard is dispatched
// remotely before the coordinator computes it locally.
const maxRemoteAttempts = 3

// Stats counts the coordinator's robustness events. All fields are
// cumulative totals since the coordinator started.
type Stats struct {
	// RemoteShards / LocalShards split completed shards by where they
	// were computed. LocalShards > 0 on a distributed campaign means the
	// coordinator degraded gracefully (worker errors or pool drain).
	RemoteShards, LocalShards uint64
	// Reassigned counts shard leases that expired (worker death or
	// partition) and went back on the queue.
	Reassigned uint64
	// JobErrors counts shards a worker explicitly failed.
	JobErrors uint64
	// FramesRejected counts corrupt-but-delimited frames dropped without
	// killing their connection.
	FramesRejected uint64
	// DuplicateResults counts late results for already-completed shards —
	// the double-merge attempts the job-ID dedup absorbed.
	DuplicateResults uint64
}

type statsCounters struct {
	remoteShards, localShards, reassigned, jobErrors atomic.Uint64
	framesRejected, duplicateResults                 atomic.Uint64
}

func (s *statsCounters) snapshot() Stats {
	return Stats{
		RemoteShards:     s.remoteShards.Load(),
		LocalShards:      s.localShards.Load(),
		Reassigned:       s.reassigned.Load(),
		JobErrors:        s.jobErrors.Load(),
		FramesRejected:   s.framesRejected.Load(),
		DuplicateResults: s.duplicateResults.Load(),
	}
}

// job states.
const (
	jobQueued = iota // waiting for a worker slot
	jobLeased        // dispatched, lease ticking
	jobLocal         // being computed by the coordinator itself
	jobDone          // finalized; any further result is a duplicate
)

type outcome struct {
	v   any
	err error
}

// job is one shard in flight through the coordinator.
type job struct {
	id         uint64
	spec       *Spec // the campaign's, shared by its jobs
	sj         mc.ShardJob
	state      int
	attempts   int       // remote dispatch count
	leaseUntil time.Time // meaningful in jobLeased
	owner      *peer     // meaningful in jobLeased
	result     chan outcome
}

// peer is one worker connection, in Coordinator.peers while it is open.
// A job leased to it stays leased after the connection closes, until the
// lease expires or a heartbeat on another connection adopts the job.
type peer struct {
	conn    net.Conn
	writeMu sync.Mutex
	leased  map[uint64]*job // guarded by Coordinator.mu
}

// Coordinator is the worker pool of a distributed sweep: it fans the
// shards of every campaign run through a DistributedRunner out to the
// workers handed to AdmitWorker, and survives arbitrary worker churn —
// reassigning expired leases, deduplicating late results by job ID, and
// finishing locally when the pool drains — while keeping results
// bit-identical to a single-host run. It owns no listener: the caller
// accepts connections and reads their Hello.
type Coordinator struct {
	cfg   Config
	stats statsCounters

	mu          sync.Mutex
	peers       map[*peer]struct{} // connected workers
	lastLeft    time.Time          // when a worker last disconnected
	jobs        map[uint64]*job    // in-flight (not yet jobDone)
	queue       []*job
	nextID      uint64
	connChanged chan struct{} // replaced on every connect/disconnect
	// localTags are engine runs a worker has failed (unencodable shard
	// type, plan mismatch — deterministic, machine- or code-level
	// failures). Their remaining shards skip the wire and run locally, so
	// one doomed stage does not cost a full round trip per shard.
	localTags map[string]struct{}

	localSem chan struct{}
	kick     chan struct{}
	done     chan struct{}
	closed   sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator starts a coordinator whose local fallback computes at
// most localWorkers shards at once (<= 0 selects GOMAXPROCS). Workers
// join it through AdmitWorker; Close shuts it down.
func NewCoordinator(cfg Config, localWorkers int) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:         cfg,
		peers:       map[*peer]struct{}{},
		jobs:        map[uint64]*job{},
		localTags:   map[string]struct{}{},
		connChanged: make(chan struct{}),
		localSem:    make(chan struct{}, mc.Workers(localWorkers)),
		kick:        make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	c.wg.Add(2)
	go c.scheduler()
	go c.janitor()
	return c
}

// Stats returns a snapshot of the robustness counters.
func (c *Coordinator) Stats() Stats { return c.stats.snapshot() }

// Lease returns the resolved shard lease.
func (c *Coordinator) Lease() time.Duration { return c.cfg.Lease }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Close tells every connected worker the sweep is over (Done frame),
// drops all connections, and stops the service. Campaigns should have
// finished first; shards still in flight will never complete.
func (c *Coordinator) Close() error {
	c.closed.Do(func() {
		close(c.done)
		c.mu.Lock()
		peers := make([]*peer, 0, len(c.peers))
		for p := range c.peers {
			peers = append(peers, p)
		}
		c.mu.Unlock()
		for _, p := range peers {
			p.writeMu.Lock()
			WriteMessage(p.conn, &Done{})
			p.conn.Close()
			p.writeMu.Unlock()
		}
	})
	c.wg.Wait()
	return nil
}

// ConnectedWorkers counts the workers connected right now — the serve
// scheduler's capacity signal.
func (c *Coordinator) ConnectedWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.peers)
}

// AwaitWorkers blocks until at least n workers are connected (or ctx
// dies). Zero returns immediately.
func (c *Coordinator) AwaitWorkers(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		connected := len(c.peers)
		ch := c.connChanged
		c.mu.Unlock()
		if connected >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("sweep: waiting for %d workers (have %d): %w", n, connected, ctx.Err())
		case <-c.done:
			return errors.New("sweep: coordinator closed while awaiting workers")
		case <-ch:
		}
	}
}

// notifyConnChange wakes AwaitWorkers waiters. Callers hold c.mu.
func (c *Coordinator) notifyConnChange() {
	close(c.connChanged)
	c.connChanged = make(chan struct{})
}

// DistributedRunner clones r with the shard executor installed: a
// campaign run with the clone fans its engine shards out to the
// connected workers, falling back to local compute per shard on worker
// failure, and its result is bit-identical to exp.Run with r on a
// single host.
func (c *Coordinator) DistributedRunner(r *exp.Runner) (*exp.Runner, error) {
	spec, err := newSpec(r)
	if err != nil {
		return nil, err
	}
	// The wire carries the coordinator's resolved worker count: stage
	// plans that depend on parallelism (Fig. 7 spans) must come out the
	// same on the worker's machine. The local runner keeps the caller's
	// raw value — it resolves to the same plan here, and experiments echo
	// it into their reported params, which must match a single-host run.
	spec.Workers = mc.Workers(spec.Workers)
	rc := &exp.Runner{}
	if r != nil {
		*rc = *r
	}
	rc.Exec = func(sj mc.ShardJob) (any, error) { return c.execute(&spec, sj) }
	return rc, nil
}

// execute is the mc.ExecFunc of a distributed campaign: enqueue the
// shard, wait for a worker (or the local fallback) to deliver it. The
// engine run's tag names its experiment, so nested helper runs inside
// other experiments replay under the right registry entry.
func (c *Coordinator) execute(spec *Spec, sj mc.ShardJob) (any, error) {
	if _, ok := exp.Lookup(experimentOf(sj.Tag)); !ok {
		// An untagged engine run cannot be named on the wire, and helper
		// engine runs inside an experiment (sub-sweeps with their own
		// tags) are not registry entries; they stay local.
		return sj.Run(), nil
	}
	j := &job{spec: spec, sj: sj, result: make(chan outcome, 1)}

	c.mu.Lock()
	c.nextID++
	j.id = c.nextID
	c.jobs[j.id] = j
	if _, poisoned := c.localTags[sj.Tag]; poisoned {
		// A worker already proved this engine run cannot travel; don't
		// burn a replay round trip per shard finding that out again.
		j.state = jobLocal
		c.mu.Unlock()
		c.runLocal(j)
	} else if !c.poolAliveLocked() {
		// No one to send it to and no one likely to return: degrade to
		// local compute immediately.
		j.state = jobLocal
		c.mu.Unlock()
		c.runLocal(j)
	} else {
		j.state = jobQueued
		c.queue = append(c.queue, j)
		c.mu.Unlock()
		c.kickScheduler()
	}

	select {
	case out := <-j.result:
		return out.v, out.err
	case <-sj.Ctx.Done():
		c.abandon(j)
		return nil, sj.Ctx.Err()
	}
}

// poolAliveLocked reports whether a worker may yet take queued shards:
// one is connected, or one left within the last lease and may be back.
func (c *Coordinator) poolAliveLocked() bool {
	return len(c.peers) > 0 || time.Since(c.lastLeft) <= c.cfg.Lease
}

func (c *Coordinator) kickScheduler() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// finalize completes a job exactly once, adding one to count (when
// non-nil) before the campaign sees the outcome, so Stats read after a
// campaign returns count all of its shards. Reports whether this call
// won — a false return means a duplicate (late result, racing local
// fallback) that must be dropped.
func (c *Coordinator) finalize(j *job, v any, err error, count *atomic.Uint64) bool {
	c.mu.Lock()
	if j.state == jobDone {
		c.mu.Unlock()
		return false
	}
	j.state = jobDone
	delete(c.jobs, j.id)
	if j.owner != nil {
		delete(j.owner.leased, j.id)
		j.owner = nil
	}
	c.mu.Unlock()
	if count != nil {
		count.Add(1)
	}
	j.result <- outcome{v: v, err: err}
	return true
}

// abandon drops a job whose campaign died: late results for it become
// duplicates.
func (c *Coordinator) abandon(j *job) {
	c.mu.Lock()
	if j.state == jobDone {
		c.mu.Unlock()
		return
	}
	j.state = jobDone
	delete(c.jobs, j.id)
	var owner *peer
	if j.owner != nil {
		delete(j.owner.leased, j.id)
		owner, j.owner = j.owner, nil
	}
	c.mu.Unlock()
	if owner != nil {
		go c.send(owner, &Cancel{IDs: []uint64{j.id}})
	}
}

// runLocal computes one shard on the coordinator, gated by the local
// semaphore so a drained pool degrades to bounded local parallelism
// rather than a thundering herd.
func (c *Coordinator) runLocal(j *job) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case c.localSem <- struct{}{}:
			defer func() { <-c.localSem }()
		case <-j.sj.Ctx.Done():
			c.finalize(j, nil, j.sj.Ctx.Err(), nil)
			return
		}
		if err := j.sj.Ctx.Err(); err != nil {
			c.finalize(j, nil, err, nil)
			return
		}
		c.finalize(j, j.sj.Run(), nil, &c.stats.localShards)
	}()
}

// requeueLocked routes a job that lost its lease: back on the queue while
// remote attempts remain, to local compute after. Callers hold c.mu and
// must kick the scheduler after unlocking.
func (c *Coordinator) requeueLocked(j *job) {
	if j.owner != nil {
		delete(j.owner.leased, j.id)
		j.owner = nil
	}
	if j.attempts >= maxRemoteAttempts {
		j.state = jobLocal
		c.runLocal(j)
		return
	}
	j.state = jobQueued
	c.queue = append(c.queue, j)
}

// scheduler assigns queued jobs to connected workers, least-loaded first.
func (c *Coordinator) scheduler() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-c.kick:
		}
		for c.assignOne() {
		}
	}
}

// assignOne dispatches one queued job; reports whether it did (or
// discarded a stale queue entry), so the scheduler drains in a loop.
func (c *Coordinator) assignOne() bool {
	c.mu.Lock()
	var j *job
	for len(c.queue) > 0 {
		head := c.queue[0]
		c.queue = c.queue[1:]
		if head.state == jobQueued {
			j = head
			break
		}
		// Stale entry (finalized or gone local while queued): drop it.
	}
	if j == nil {
		c.mu.Unlock()
		return false
	}
	var best *peer
	for p := range c.peers {
		if best == nil || len(p.leased) < len(best.leased) {
			best = p
		}
	}
	if best == nil {
		// No connected worker right now. Put it back; the janitor either
		// finds a reconnected worker later or degrades it to local when
		// the pool is truly gone.
		c.queue = append([]*job{j}, c.queue...)
		c.mu.Unlock()
		return false
	}
	j.state = jobLeased
	j.owner = best
	j.attempts++
	j.leaseUntil = time.Now().Add(c.cfg.Lease)
	best.leased[j.id] = j
	msg := &Job{ID: j.id, Tag: j.sj.Tag, Shard: j.sj.Shard, Shards: j.sj.Shards, Spec: *j.spec}
	c.mu.Unlock()
	if err := c.send(best, msg); err != nil {
		// The write failed: the connection is dead. The lease keeps the
		// job recoverable.
		c.drop(best)
	}
	return true
}

// send writes one message on a worker's connection. Job and control
// frames stay plain: result blobs, the payloads worth compressing, flow
// the other way.
func (c *Coordinator) send(p *peer, m Message) error {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	return WriteMessage(p.conn, m)
}

// drop takes a worker out of the pool and closes its connection. Its
// leased jobs keep their leases.
func (c *Coordinator) drop(p *peer) {
	c.mu.Lock()
	if _, open := c.peers[p]; open {
		delete(c.peers, p)
		c.lastLeft = time.Now()
		c.notifyConnChange()
	}
	c.mu.Unlock()
	p.conn.Close()
}

// janitor is the churn clock: it expires shard leases, degrades the
// queue to local compute when the pool is gone, and re-kicks the
// scheduler.
func (c *Coordinator) janitor() {
	defer c.wg.Done()
	tick := c.cfg.Lease / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		// Expired leases: the worker died, partitioned, or is too slow —
		// reassign the shard. If its result still arrives later, the
		// job-ID dedup drops whichever copy comes second.
		for _, j := range c.jobs {
			if j.state == jobLeased && now.After(j.leaseUntil) {
				c.stats.reassigned.Add(1)
				c.logf("sweep: [job %d] lease expired for shard %d of %s (attempt %d), reassigning",
					j.id, j.sj.Shard, j.sj.Tag, j.attempts)
				c.requeueLocked(j)
			}
		}
		// Pool drained: no worker will ever take the queue — finish the
		// campaign locally.
		if len(c.queue) > 0 && !c.poolAliveLocked() {
			queued := c.queue
			c.queue = nil
			n := 0
			for _, j := range queued {
				if j.state == jobQueued {
					j.state = jobLocal
					c.runLocal(j)
					n++
				}
			}
			if n > 0 {
				c.logf("sweep: worker pool drained, computing %d queued shards locally", n)
			}
		}
		c.mu.Unlock()
		c.kickScheduler()
	}
}

// AdmitWorker runs one worker connection whose Hello frame the caller
// has already read and authenticated: the Welcome, then the inbound
// message loop. Each frame must arrive within two leases — the worker
// heartbeats every third of one — or the worker is dropped as silent.
// Corrupt-but-delimited frames are counted and skipped; a desynchronized
// stream drops only this connection. It blocks until the connection
// dies and closes conn on return; the worker's leased jobs stay leased
// until a heartbeat on its next connection adopts them or they expire.
func (c *Coordinator) AdmitWorker(conn net.Conn) {
	p := &peer{conn: conn, leased: map[uint64]*job{}}
	defer c.drop(p)
	// The Welcome goes out before the scheduler can see the peer, so it
	// is the worker's first frame.
	if err := WriteMessage(conn, &Welcome{Lease: c.cfg.Lease}); err != nil {
		return
	}
	c.mu.Lock()
	c.peers[p] = struct{}{}
	c.notifyConnChange()
	c.mu.Unlock()
	c.logf("sweep: worker %v connected", conn.RemoteAddr())
	c.kickScheduler()

	for {
		conn.SetReadDeadline(time.Now().Add(2 * c.cfg.Lease))
		t, _, payload, err := ReadFrame(conn, MaxFramePayload)
		var msg Message
		if err == nil {
			msg, err = DecodeMessage(t, payload)
		}
		if Recoverable(err) {
			c.stats.framesRejected.Add(1)
			c.logf("sweep: worker %v sent a corrupt frame, rejected: %v", conn.RemoteAddr(), err)
			continue
		}
		if err != nil {
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				c.logf("sweep: worker %v silent for %v, dropped", conn.RemoteAddr(), 2*c.cfg.Lease)
			case err != io.EOF && !errors.Is(err, net.ErrClosed):
				c.logf("sweep: worker %v connection dropped: %v", conn.RemoteAddr(), err)
			}
			return
		}
		switch m := msg.(type) {
		case *Result:
			c.handleResult(m)
		case *JobError:
			c.handleJobError(m)
		case *Heartbeat:
			c.handleHeartbeat(p, m)
		default:
			// A worker has no business sending Job/Welcome/etc; treat it
			// like a corrupt frame.
			c.stats.framesRejected.Add(1)
		}
	}
}

// handleResult merges one remotely computed shard. Results are
// deduplicated by job ID: whatever arrives after a shard completed —
// a slow worker's answer to a reassigned shard, a duplicated frame —
// is dropped, so double-merging is structurally impossible.
func (c *Coordinator) handleResult(m *Result) {
	c.mu.Lock()
	j := c.jobs[m.ID]
	done := j != nil && j.state == jobDone
	c.mu.Unlock()
	if j == nil || done {
		c.stats.duplicateResults.Add(1)
		return
	}
	if m.Shard != j.sj.Shard {
		// The payload disagrees with the job binding — corruption that
		// survived the checksum, or a confused worker. Never merge it.
		c.stats.framesRejected.Add(1)
		c.logf("sweep: result for job %d names shard %d, want %d — rejected", m.ID, m.Shard, j.sj.Shard)
		return
	}
	v, err := j.sj.Decode(m.Data)
	if err != nil {
		// Undecodable payload: recompute rather than fail the campaign.
		c.logf("sweep: [job %d] result for shard %d of %s undecodable (%v), recomputing", j.id, j.sj.Shard, j.sj.Tag, err)
		c.mu.Lock()
		if j.state != jobDone {
			c.requeueLocked(j)
		}
		c.mu.Unlock()
		c.kickScheduler()
		return
	}
	if !c.finalize(j, v, nil, &c.stats.remoteShards) {
		c.stats.duplicateResults.Add(1)
	}
}

// handleJobError routes a shard the worker could not compute to local
// compute: worker-side failures (unencodable shard type, plan mismatch,
// replay error) are deterministic, so redispatching them remotely would
// fail everywhere. The whole engine run is poisoned along with it —
// every sibling shard of the same tag, queued or in flight, moves to
// local compute and the workers are told to abandon theirs. A JobError
// for a shard that is no longer queued or leased (done, or already
// computing locally, typically because an earlier JobError poisoned its
// tag) is only counted.
func (c *Coordinator) handleJobError(m *JobError) {
	c.stats.jobErrors.Add(1)
	c.mu.Lock()
	j := c.jobs[m.ID]
	if j == nil || (j.state != jobQueued && j.state != jobLeased) {
		c.mu.Unlock()
		return
	}
	tag := j.sj.Tag
	c.logf("sweep: [job %d] worker failed shard %d of %s (%s); computing that run locally", j.id, j.sj.Shard, tag, m.Msg)
	c.localTags[tag] = struct{}{}
	var toLocal []*job
	cancels := map[*peer][]uint64{}
	for _, sib := range c.jobs {
		if sib.sj.Tag != tag || (sib.state != jobQueued && sib.state != jobLeased) {
			continue
		}
		if sib.owner != nil {
			cancels[sib.owner] = append(cancels[sib.owner], sib.id)
			delete(sib.owner.leased, sib.id)
			sib.owner = nil
		}
		sib.state = jobLocal
		toLocal = append(toLocal, sib)
	}
	c.mu.Unlock()
	for _, sib := range toLocal {
		c.runLocal(sib)
	}
	for owner, ids := range cancels {
		owner, ids := owner, ids
		go c.send(owner, &Cancel{IDs: ids})
	}
}

// handleHeartbeat refreshes the leases of the jobs the worker lists in
// flight and pongs, so both sides can distinguish silent-alive from
// dead. A listed job leased to a connection that has closed — the
// worker's previous one, typically — is adopted by this connection.
func (c *Coordinator) handleHeartbeat(p *peer, m *Heartbeat) {
	now := time.Now()
	c.mu.Lock()
	for _, id := range m.InFlight {
		j := c.jobs[id]
		if j == nil || j.state != jobLeased {
			continue
		}
		if j.owner != p {
			if _, open := c.peers[j.owner]; open {
				continue // another live worker's job
			}
			delete(j.owner.leased, id)
			j.owner = p
			p.leased[id] = j
		}
		j.leaseUntil = now.Add(c.cfg.Lease)
	}
	c.mu.Unlock()
	c.send(p, &Heartbeat{})
}
