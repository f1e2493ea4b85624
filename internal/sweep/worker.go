package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"faultmem/internal/exp"
	"faultmem/internal/mc"
)

// WorkerConfig tunes a worker's reconnects and compute. Its liveness
// clocks come from the lease in the coordinator's Welcome: a heartbeat
// every third of the lease, and a link silent for four heartbeats is
// dropped. The zero value selects production defaults; tests shrink the
// backoff to milliseconds.
type WorkerConfig struct {
	// ReconnectMin/ReconnectMax bound the jittered exponential backoff
	// between connection attempts (defaults 100ms / 5s).
	ReconnectMin, ReconnectMax time.Duration
	// LocalWorkers caps the worker's compute parallelism across all
	// in-flight shards (default GOMAXPROCS).
	LocalWorkers int
	// AuthToken is the shared secret presented in the Hello handshake
	// when the server's port requires one.
	AuthToken string
	// Logf, when non-nil, receives one line per connection event.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 100 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 5 * time.Second
	}
	if c.ReconnectMax < c.ReconnectMin {
		c.ReconnectMax = c.ReconnectMin
	}
	c.LocalWorkers = mc.Workers(c.LocalWorkers)
	return c
}

// worker is the client side of the sweep protocol: it computes assigned
// shards by replaying their campaign, survives coordinator restarts and
// network churn by reconnecting with backoff, and buffers results
// computed while disconnected for redelivery.
type worker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	conn     net.Conn
	inflight map[uint64]context.CancelFunc
	pending  []Message // results awaiting a live connection

	sendMu      sync.Mutex
	zw          gzipWriter   // compresses result frames; guarded by sendMu
	lastInbound atomic.Int64 // unix nanos of the last valid frame
	sem         chan struct{}
	wg          sync.WaitGroup
}

// RunWorker connects to a coordinator at addr and serves shard jobs until
// the coordinator says Done (returns nil) or ctx dies (returns ctx.Err()).
// Connection loss is not an exit condition: the worker reconnects with
// jittered exponential backoff, re-delivers any results it computed while
// disconnected, and its heartbeats on the new connection keep the leases
// of the jobs it is still computing.
func RunWorker(ctx context.Context, addr string, cfg WorkerConfig) error {
	w := &worker{
		cfg:      cfg.withDefaults(),
		inflight: map[uint64]context.CancelFunc{},
		sem:      make(chan struct{}, cfg.withDefaults().LocalWorkers),
	}
	defer w.wg.Wait()
	defer w.cancelJobs(nil)
	backoff := w.cfg.ReconnectMin
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("sweep worker: dial %s: %v (retrying in ~%v)", addr, err, backoff)
			if !sleepCtx(ctx, jitter(backoff)) {
				return ctx.Err()
			}
			backoff *= 2
			if backoff > w.cfg.ReconnectMax {
				backoff = w.cfg.ReconnectMax
			}
			continue
		}
		finished, err := w.serveConn(ctx, conn)
		if finished {
			return err
		}
		// The connection died but the sweep may still be on: retry from
		// the floor (we just had a working link; the jitter still spreads
		// a thundering herd of restarted workers).
		backoff = w.cfg.ReconnectMin
		if !sleepCtx(ctx, jitter(backoff)) {
			return ctx.Err()
		}
	}
}

// jitter spreads a backoff delay over [d/2, d] so a fleet of workers
// restarted together does not reconnect in lockstep.
func jitter(d time.Duration) time.Duration {
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// sleepCtx sleeps d; reports false if ctx died first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// serveConn runs one connection: handshake, pending-result flush, then
// the job loop. It reports finished = true only on a clean Done or a dead
// ctx; everything else means "reconnect and carry on".
func (w *worker) serveConn(ctx context.Context, conn net.Conn) (finished bool, err error) {
	defer conn.Close()

	if err := WriteMessage(conn, &Hello{Auth: w.cfg.AuthToken}); err != nil {
		return false, err
	}
	t, _, payload, err := ReadFrame(conn, MaxFramePayload)
	if err != nil {
		return false, err
	}
	if t != MsgWelcome {
		return false, fmt.Errorf("sweep worker: handshake got %v, want welcome", t)
	}
	m, err := DecodeMessage(t, payload)
	if err != nil {
		return false, err
	}
	lease := m.(*Welcome).Lease

	w.mu.Lock()
	w.conn = conn
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		if w.conn == conn {
			w.conn = nil
		}
		w.mu.Unlock()
	}()
	w.lastInbound.Store(time.Now().UnixNano())
	w.logf("sweep worker: connected (lease %v)", lease)

	// Results computed while disconnected go first — the slow worker's
	// late answer is the coordinator's problem to dedup, not ours to drop.
	w.flushPending()

	hbStop := make(chan struct{})
	defer close(hbStop)
	go w.heartbeatLoop(conn, lease/3, hbStop)
	go func() {
		// Unblock the read loop if ctx dies mid-read.
		select {
		case <-ctx.Done():
			conn.Close()
		case <-hbStop:
		}
	}()

	for {
		t, _, payload, err := ReadFrame(conn, MaxFramePayload)
		if ctx.Err() != nil {
			return true, ctx.Err()
		}
		if err != nil {
			if Recoverable(err) {
				// Corrupt but well-delimited: skip the frame, keep the
				// connection.
				w.logf("sweep worker: rejected corrupt frame: %v", err)
				continue
			}
			if err != io.EOF {
				w.logf("sweep worker: connection lost: %v", err)
			}
			return false, err
		}
		w.lastInbound.Store(time.Now().UnixNano())
		msg, err := DecodeMessage(t, payload)
		if err != nil {
			w.logf("sweep worker: rejected corrupt payload: %v", err)
			continue
		}
		switch m := msg.(type) {
		case *Job:
			w.startJob(ctx, m)
		case *Heartbeat:
			// Pong: lastInbound already refreshed above.
		case *Cancel:
			w.cancelJobs(m.IDs)
		case *Done:
			w.logf("sweep worker: coordinator done, exiting")
			w.cancelJobs(nil)
			return true, nil
		default:
			w.logf("sweep worker: unexpected %v frame ignored", t)
		}
	}
}

// heartbeatLoop refreshes the leases of in-flight jobs every period and
// watches for a silent connection: if nothing valid arrives within four
// periods the link is presumed black-holed and closed, which sends the
// read loop into the reconnect path.
func (w *worker) heartbeatLoop(conn net.Conn, period time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		silent := time.Since(time.Unix(0, w.lastInbound.Load()))
		if silent > 4*period {
			w.logf("sweep worker: no traffic for %v, dropping connection", silent)
			conn.Close()
			return
		}
		w.mu.Lock()
		ids := make([]uint64, 0, len(w.inflight))
		for id := range w.inflight {
			ids = append(ids, id)
		}
		w.mu.Unlock()
		if err := w.sendMsg(&Heartbeat{InFlight: ids}); err != nil {
			conn.Close()
			return
		}
	}
}

// sendMsg writes one message on the current connection. A payload of at
// least CompressMin bytes (in practice a shard-result blob — every other
// worker message is far smaller) travels gzip-compressed unless that
// does not shrink it. Sends are serialized under sendMu, so every frame
// reuses the worker's one gzip writer.
func (w *worker) sendMsg(m Message) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	w.mu.Lock()
	conn := w.conn
	w.mu.Unlock()
	if conn == nil {
		return errors.New("sweep worker: not connected")
	}
	payload, flags := m.appendTo(nil), byte(0)
	if len(payload) >= CompressMin {
		if z := w.zw.compress(payload); len(z) < len(payload) {
			payload, flags = z, FlagGzip
		}
	}
	_, err := conn.Write(AppendFrame(nil, m.msgType(), flags, payload))
	return err
}

// deliver sends a result, buffering it for the next successful handshake
// when the connection is down.
func (w *worker) deliver(m Message) {
	if err := w.sendMsg(m); err != nil {
		w.mu.Lock()
		w.pending = append(w.pending, m)
		w.mu.Unlock()
	}
}

// flushPending re-delivers results buffered across a disconnect.
func (w *worker) flushPending() {
	w.mu.Lock()
	p := w.pending
	w.pending = nil
	w.mu.Unlock()
	for i, m := range p {
		if err := w.sendMsg(m); err != nil {
			w.mu.Lock()
			w.pending = append(p[i:], w.pending...)
			w.mu.Unlock()
			return
		}
	}
	if len(p) > 0 {
		w.logf("sweep worker: re-delivered %d buffered results", len(p))
	}
}

// startJob begins computing one assigned shard. Duplicate assignments of
// an in-flight job (a reassignment that landed back here) are ignored —
// the running computation will answer; a duplicate of a finished job is
// simply recomputed, which is safe because shards are deterministic.
func (w *worker) startJob(ctx context.Context, jm *Job) {
	w.mu.Lock()
	if _, dup := w.inflight[jm.ID]; dup {
		w.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(ctx)
	w.inflight[jm.ID] = cancel
	w.mu.Unlock()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer cancel()
		msg := w.computeJob(jctx, jm)
		w.mu.Lock()
		delete(w.inflight, jm.ID)
		w.mu.Unlock()
		if msg != nil {
			w.deliver(msg)
		}
	}()
}

// cancelJobs aborts the listed in-flight jobs (all of them when ids is
// empty).
func (w *worker) cancelJobs(ids []uint64) {
	w.mu.Lock()
	if len(ids) == 0 {
		for _, cancel := range w.inflight {
			cancel()
		}
	} else {
		for _, id := range ids {
			if cancel, ok := w.inflight[id]; ok {
				cancel()
			}
		}
	}
	w.mu.Unlock()
}

// computeJob replays the job's campaign for its one shard and packages
// the outcome. A nil return means the job was cancelled and nobody wants
// the answer.
func (w *worker) computeJob(ctx context.Context, jm *Job) Message {
	data, err := w.replayShard(ctx, jm)
	if ctx.Err() != nil {
		return nil
	}
	if err != nil {
		return &JobError{ID: jm.ID, Msg: err.Error()}
	}
	return &Result{ID: jm.ID, Shard: jm.Shard, Data: data}
}

// replayShard is the capture half of the distribution model: re-run the
// engine run the job's Tag names — same experiment, seed, budget tier,
// and parameter overrides, so the engine plan matches the coordinator's
// — as a stage-only run (exp.RunStage), which skips every other stage of
// a multi-stage experiment. Its executor skips every shard except the
// requested one, computes that one, captures its encoding, and aborts
// the rest of the replay. An engine run under any other tag means the
// experiment does not skip its other stages; that fails the job, and
// the coordinator's JobError handling computes the tag locally.
func (w *worker) replayShard(ctx context.Context, jm *Job) ([]byte, error) {
	r := jm.Spec.Runner()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	var captured []byte
	var capErr error
	fail := func(err error) (any, error) {
		mu.Lock()
		if capErr == nil {
			capErr = err
		}
		mu.Unlock()
		cancel()
		return nil, err
	}
	r.Exec = func(sj mc.ShardJob) (any, error) {
		if sj.Tag != jm.Tag {
			return fail(fmt.Errorf("sweep worker: replay of %q opened engine run %q", jm.Tag, sj.Tag))
		}
		if sj.Shards != jm.Shards {
			// The local plan disagrees with the coordinator's: shard
			// indices would mean different slices of work. Refuse rather
			// than return a shard of the wrong partition.
			return fail(fmt.Errorf("sweep worker: plan mismatch for %q: job wants shard %d of %d, local plan has %d shards",
				jm.Tag, jm.Shard, jm.Shards, sj.Shards))
		}
		if sj.Shard != jm.Shard {
			return nil, mc.ErrShardSkipped
		}
		select {
		case w.sem <- struct{}{}:
		case <-sj.Ctx.Done():
			return nil, sj.Ctx.Err()
		}
		v := func() any {
			defer func() { <-w.sem }()
			return sj.Run()
		}()
		b, err := sj.Encode(v)
		if err != nil {
			return fail(err)
		}
		mu.Lock()
		captured = b
		mu.Unlock()
		// The requested shard is in hand: abort the rest of the replay
		// instead of computing shards nobody asked for.
		cancel()
		return v, nil
	}
	runErr := exp.RunStage(runCtx, experimentOf(jm.Tag), r, jm.Tag)
	mu.Lock()
	defer mu.Unlock()
	if capErr != nil {
		return nil, capErr
	}
	// Success requires the capture AND a live job context: a cancelled
	// replay can surface as a zero-value result from experiments that
	// swallow inner context errors, and those bits must never be merged.
	if captured != nil && ctx.Err() == nil {
		return captured, nil
	}
	if runErr == nil {
		return nil, fmt.Errorf("sweep worker: replay of %s finished without reaching shard %d of run %q",
			experimentOf(jm.Tag), jm.Shard, jm.Tag)
	}
	return nil, runErr
}
