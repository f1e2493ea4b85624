package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"faultmem/internal/serve"
	"faultmem/internal/sweep"
	"faultmem/internal/workload"
)

// snapshotEvery is the server's partial-state push period; the traced
// queue time (ack to the first snapshot showing progress) has this
// resolution.
const snapshotEvery = 50 * time.Millisecond

// rig is an in-process campaign service: a server, one sweep worker
// computing on every core, and one client connection. The server's
// single local slot only computes when no worker is connected, so all
// shards take the wire path. With a proxy the worker reaches the server
// through a byte-counting loopback relay.
type rig struct {
	srv        *serve.Server
	proxy      *countingProxy
	cl         *serve.Client
	stopWorker context.CancelFunc
	workerDone chan error

	mu       sync.Mutex
	progress map[uint64]time.Time // first snapshot showing progress, per job
}

// startRig listens on a loopback port, waits for the worker to join and
// dials the client.
func startRig(ctx context.Context, withProxy bool) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &rig{progress: map[uint64]time.Time{}}
	r.srv = serve.NewServer(ln, serve.Config{LocalWorkers: 1, SnapshotEvery: snapshotEvery})
	workerAddr := r.srv.Addr().String()
	if withProxy {
		if r.proxy, err = newCountingProxy(workerAddr); err != nil {
			r.srv.Close()
			return nil, err
		}
		workerAddr = r.proxy.addr()
	}
	wctx, stop := context.WithCancel(context.Background())
	r.stopWorker, r.workerDone = stop, make(chan error, 1)
	go func() {
		r.workerDone <- sweep.RunWorker(wctx, workerAddr, sweep.WorkerConfig{LocalWorkers: workers})
	}()
	for r.srv.Workers() < 1 {
		select {
		case <-ctx.Done():
			r.close()
			return nil, fmt.Errorf("waiting for the worker: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	r.cl, err = serve.Dial(ctx, r.srv.Addr().String(), serve.Options{OnSnapshot: r.onSnapshot})
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) onSnapshot(snap serve.JobSnapshot, _ uint64) {
	for _, st := range snap.Stages {
		if st.Done > 0 {
			r.mu.Lock()
			if _, ok := r.progress[snap.ID]; !ok {
				r.progress[snap.ID] = time.Now()
			}
			r.mu.Unlock()
			return
		}
	}
}

func (r *rig) firstProgress(job uint64) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.progress[job]
	return t, ok
}

// close stops the client, the server, the worker and the proxy, and
// waits for each.
func (r *rig) close() {
	if r.cl != nil {
		r.cl.Close()
	}
	r.srv.Close()
	r.stopWorker()
	<-r.workerDone
	if r.proxy != nil {
		r.proxy.close()
	}
}

// submission is the client-side record of one served campaign.
type submission struct {
	c      campaign
	sent   time.Time
	acked  time.Time
	final  time.Time
	job    uint64
	result []byte
	err    error
}

// submit sends one campaign and waits for its final.
func (r *rig) submit(ctx context.Context, s *submission) {
	s.sent = time.Now()
	id, err := r.cl.Submit(ctx, s.c.submission())
	s.acked = time.Now()
	if err != nil {
		s.err = fmt.Errorf("submit %s: %w", s.c.experiment, err)
		return
	}
	s.job = id
	f, err := r.cl.Wait(ctx, id)
	s.final = time.Now()
	switch {
	case err != nil:
		s.err = fmt.Errorf("wait %s: %w", s.c.experiment, err)
	case f.Err != "":
		s.err = fmt.Errorf("%s: %s", s.c.experiment, f.Err)
	default:
		s.result = f.Result
	}
}

// closedLoop keeps inflight campaigns outstanding on the one client
// connection, submitting the next of cs as soon as one finishes. It
// stops when cs runs out or, for a positive window, at the first
// multiple of group submissions after the window has passed, and
// returns every submission after its final is in.
func (r *rig) closedLoop(ctx context.Context, cs []campaign, inflight int, window time.Duration, group int) []*submission {
	start := time.Now()
	slots := make(chan struct{}, inflight)
	var subs []*submission
	var wg sync.WaitGroup
	for i, c := range cs {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil || (window > 0 && i%group == 0 && time.Since(start) >= window) {
			break
		}
		s := &submission{c: c}
		subs = append(subs, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			r.submit(ctx, s)
		}()
	}
	wg.Wait()
	return subs
}

// cacheHitRatio is the instance-cache hit ratio since a baseline read
// of workload.InstanceCacheStats (0 when nothing was looked up).
func cacheHitRatio(hits0, misses0 uint64) float64 {
	hits, misses := workload.InstanceCacheStats()
	h, m := hits-hits0, misses-misses0
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// countingProxy relays TCP connections to a target and counts the bytes
// it carries in both directions.
type countingProxy struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

func newCountingProxy(target string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	p := &countingProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		if !p.track(in, out) {
			return
		}
		p.wg.Add(2)
		go p.pipe(out, in)
		go p.pipe(in, out)
	}
}

// track registers a relayed pair for close; false once the proxy is
// closed (the pair is closed here).
func (p *countingProxy) track(a, b net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		a.Close()
		b.Close()
		return false
	}
	p.conns = append(p.conns, a, b)
	return true
}

// pipe copies src to dst, counting bytes, and closes both ends when
// either side stops.
func (p *countingProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	n, _ := io.Copy(dst, src) // either side closing ends the relay
	p.bytes.Add(n)
	dst.Close()
	src.Close()
}

func (p *countingProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
