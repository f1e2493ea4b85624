package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"faultmem/internal/sweep"
	"faultmem/internal/yield"
)

// Options configures a client connection.
type Options struct {
	// Token resumes a previous session: its running jobs re-attach and
	// finals buffered while disconnected are redelivered. Empty opens a
	// fresh session.
	Token string
	// Auth is the server's shared secret (empty when the server runs
	// open).
	Auth string
	// OnSnapshot, when non-nil, receives every partial-state push. It is
	// called from the read loop — keep it cheap.
	OnSnapshot func(snap JobSnapshot, seq uint64)
	// Logf, when non-nil, receives one line per connection event.
	Logf func(format string, args ...any)
}

// Campaign is one submission: the experiment name plus the runner knobs
// in exactly the form `faultmem run` accepts.
type Campaign struct {
	Experiment string
	// Label is a free-form annotation echoed in status listings.
	Label string
	// Priority weights the server's fair-share scheduler (0 and 1 mean
	// the default weight; higher gets proportionally more concurrent
	// shards).
	Priority int
	Seed     *int64
	Quick    bool
	Workers  int
	Accum    yield.AccumMode
	Bins     int
	// Params is a strict JSON override of the experiment's defaults
	// (empty = defaults).
	Params []byte
}

// FinalResult is one job's terminal outcome.
type FinalResult struct {
	JobID uint64
	// Err is the server-side failure ("" on success) — experiment
	// errors, cancellation.
	Err string
	// Result is the ExperimentResult JSON, byte-identical to a local
	// `faultmem run -json` of the same campaign.
	Result []byte
}

// Client is one connection to a campaign server.
type Client struct {
	conn     net.Conn
	opts     Options
	token    string
	draining bool

	writeMu sync.Mutex

	mu      sync.Mutex
	nextRef uint64
	replies map[uint64]chan *sweep.SubmitReply
	infos   map[uint64]chan *sweep.JobInfo
	finals  map[uint64]chan *FinalResult
	readErr error

	readDone chan struct{}
}

// Dial connects to a campaign server, authenticates, and opens (or
// resumes) a session.
func Dial(ctx context.Context, addr string, opts Options) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	}
	hello := &sweep.ClientHello{Token: opts.Token, Auth: opts.Auth}
	if err := sweep.WriteMessage(conn, hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: handshake write: %w", err)
	}
	t, _, payload, err := sweep.ReadFrame(conn, sweep.MaxFramePayload)
	if err != nil {
		conn.Close()
		// An auth-rejected connection is simply closed by the server, so
		// the handshake read fails; name the likeliest cause.
		return nil, fmt.Errorf("serve: handshake read (connection rejected — bad auth token?): %w", err)
	}
	msg, err := sweep.DecodeMessage(t, payload)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: handshake decode: %w", err)
	}
	w, ok := msg.(*sweep.ClientWelcome)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("serve: handshake: unexpected %v frame", t)
	}
	conn.SetDeadline(time.Time{})
	c := &Client{
		conn:     conn,
		opts:     opts,
		token:    w.Token,
		draining: w.Draining,
		replies:  map[uint64]chan *sweep.SubmitReply{},
		infos:    map[uint64]chan *sweep.JobInfo{},
		finals:   map[uint64]chan *FinalResult{},
		readDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Token is the session token — present it in Options.Token to resume
// this session after a disconnect.
func (c *Client) Token() string { return c.token }

// Draining reports whether the server announced it is winding down at
// handshake time (running jobs finish; new submissions are rejected).
func (c *Client) Draining() bool { return c.draining }

// Close drops the connection. The server keeps the session resumable
// until its ClientTTL.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readDone
	return err
}

func (c *Client) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// fail ends the read loop: every pending and future wait sees the
// error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.mu.Unlock()
	close(c.readDone)
}

// readLoop dispatches inbound frames to the pending waits and the
// snapshot callback.
func (c *Client) readLoop() {
	for {
		t, _, payload, err := sweep.ReadFrame(c.conn, sweep.MaxFramePayload)
		var msg sweep.Message
		if err == nil {
			msg, err = sweep.DecodeMessage(t, payload)
		}
		if sweep.Recoverable(err) {
			c.logf("serve client: corrupt frame, skipped: %v", err)
			continue
		}
		if err != nil {
			c.fail(fmt.Errorf("serve: connection lost: %w", err))
			return
		}
		switch m := msg.(type) {
		case *sweep.SubmitReply:
			c.mu.Lock()
			ch := c.replies[m.Ref]
			delete(c.replies, m.Ref)
			c.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		case *sweep.JobInfo:
			c.mu.Lock()
			ch := c.infos[m.Ref]
			delete(c.infos, m.Ref)
			c.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		case *sweep.Snapshot:
			if c.opts.OnSnapshot == nil {
				continue
			}
			var snap JobSnapshot
			if err := json.Unmarshal(m.Data, &snap); err != nil {
				continue
			}
			c.opts.OnSnapshot(snap, m.Seq)
		case *sweep.Final:
			f := &FinalResult{JobID: m.JobID, Err: m.ErrMsg, Result: m.Result}
			select {
			case c.finalChan(m.JobID) <- f:
			default: // duplicate redelivery; the first copy stands
			}
		default:
			c.logf("serve client: unexpected %v frame, ignored", t)
		}
	}
}

// finalChan returns the job's final channel, creating it on demand —
// finals can arrive for jobs submitted on a previous connection of a
// resumed session, or out of order with the submit reply.
func (c *Client) finalChan(jobID uint64) chan *FinalResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := c.finals[jobID]
	if ch == nil {
		ch = make(chan *FinalResult, 1)
		c.finals[jobID] = ch
	}
	return ch
}

func (c *Client) writeMsg(m sweep.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return sweep.WriteMessage(c.conn, m)
}

func (c *Client) ref() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextRef++
	return c.nextRef
}

// Submit sends one campaign and returns its admitted job ID.
func (c *Client) Submit(ctx context.Context, spec Campaign) (uint64, error) {
	ref := c.ref()
	ch := make(chan *sweep.SubmitReply, 1)
	c.mu.Lock()
	c.replies[ref] = ch
	c.mu.Unlock()
	m := &sweep.Submit{
		Ref:        ref,
		Experiment: spec.Experiment,
		Label:      spec.Label,
		Priority:   spec.Priority,
		Spec: sweep.Spec{
			Seed:    spec.Seed,
			Quick:   spec.Quick,
			Workers: spec.Workers,
			Accum:   spec.Accum,
			Bins:    spec.Bins,
			Params:  spec.Params,
		},
	}
	if err := c.writeMsg(m); err != nil {
		return 0, fmt.Errorf("serve: submit: %w", err)
	}
	select {
	case r := <-ch:
		if r.ErrMsg != "" {
			return 0, errors.New(r.ErrMsg)
		}
		return r.JobID, nil
	case <-c.readDone:
		return 0, c.readError()
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Wait blocks until the job's final result arrives (pushed by the
// server; redelivered on session resume).
func (c *Client) Wait(ctx context.Context, jobID uint64) (*FinalResult, error) {
	select {
	case f := <-c.finalChan(jobID):
		return f, nil
	case <-c.readDone:
		return nil, c.readError()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *Client) readError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// control runs one JobControl round trip.
func (c *Client) control(ctx context.Context, verb sweep.ControlVerb, jobID uint64) (*sweep.JobInfo, error) {
	ref := c.ref()
	ch := make(chan *sweep.JobInfo, 1)
	c.mu.Lock()
	c.infos[ref] = ch
	c.mu.Unlock()
	if err := c.writeMsg(&sweep.JobControl{Ref: ref, Verb: verb, JobID: jobID}); err != nil {
		return nil, fmt.Errorf("serve: %v: %w", verb, err)
	}
	select {
	case info := <-ch:
		if info.ErrMsg != "" {
			return nil, errors.New(info.ErrMsg)
		}
		return info, nil
	case <-c.readDone:
		return nil, c.readError()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, jobID uint64) (JobStatus, error) {
	info, err := c.control(ctx, sweep.VerbStatus, jobID)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(info.Data, &st); err != nil {
		return JobStatus{}, fmt.Errorf("serve: status JSON: %w", err)
	}
	return st, nil
}

// Cancel cancels one running job (finished jobs are a no-op) and
// returns its status; the job's Final then reports the cancellation.
func (c *Client) Cancel(ctx context.Context, jobID uint64) (JobStatus, error) {
	info, err := c.control(ctx, sweep.VerbCancel, jobID)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(info.Data, &st); err != nil {
		return JobStatus{}, fmt.Errorf("serve: cancel JSON: %w", err)
	}
	return st, nil
}

// List fetches the status of every job the server knows, in submission
// order.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	info, err := c.control(ctx, sweep.VerbList, 0)
	if err != nil {
		return nil, err
	}
	var list []JobStatus
	if err := json.Unmarshal(info.Data, &list); err != nil {
		return nil, fmt.Errorf("serve: list JSON: %w", err)
	}
	return list, nil
}
