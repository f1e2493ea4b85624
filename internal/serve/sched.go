package serve

import (
	"context"
	"sync"
)

// The fair-share gate. Every shard of every admitted campaign must hold
// a ticket while it executes (locally or on a remote worker), and the
// gate hands tickets out by stride scheduling: each campaign carries a
// virtual-time pass that advances by strideScale/weight per grant, and
// the eligible waiter with the smallest pass wins the next ticket. That
// makes grant throughput proportional to priority weight regardless of
// how many tickets the pool has — a huge fig7 run and a -quick smoke
// interleave at shard granularity instead of queueing whole campaigns,
// and a campaign admitted mid-run starts at the current virtual clock
// rather than replaying the head start of its elders. Because the
// Monte-Carlo engine exports all of a run's shards concurrently when an
// executor is installed, every campaign always has waiters parked here,
// so the moment a ticket frees up a starved campaign takes it.

// strideScale is the virtual-time numerator: one grant advances a
// campaign's pass by strideScale/weight.
const strideScale = 1 << 20

// limiter caps one client's concurrently executing shards across all of
// its campaigns. A nil limiter means uncapped.
type limiter struct {
	cap      int
	inflight int // guarded by the owning scheduler's mu
}

// schedEntry is one campaign's standing in the gate. All fields are
// guarded by the scheduler's mu after admit.
type schedEntry struct {
	weight int    // priority weight, >= 1
	seq    uint64 // admission order, the pass tie-break
	stride uint64 // strideScale / weight
	pass   uint64 // virtual time consumed
	lim    *limiter
}

type waiter struct {
	e       *schedEntry
	ready   chan struct{}
	granted bool // guarded by scheduler.mu
}

// scheduler is the ticket gate. Capacity is sampled on every pump so it
// tracks the worker pool live: tickets = local parallelism + slots per
// connected worker.
type scheduler struct {
	capacity func() int

	mu       sync.Mutex
	inflight int
	vtime    uint64 // pass of the most recently granted entry
	waiters  []*waiter
	nextSeq  uint64
}

func newScheduler(capacity func() int) *scheduler {
	return &scheduler{capacity: capacity}
}

// admit registers one campaign with the gate at the given priority
// weight (values < 1 are lifted to 1). The entry joins at the current
// virtual clock, so it competes fairly from now on without inheriting
// or owing history. Entries need no teardown: a finished campaign
// simply stops acquiring.
func (s *scheduler) admit(weight int, lim *limiter) *schedEntry {
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq++
	return &schedEntry{
		weight: weight,
		seq:    s.nextSeq,
		stride: strideScale / uint64(weight),
		pass:   s.vtime,
		lim:    lim,
	}
}

// acquire blocks until the entry is granted a ticket or ctx dies. Every
// successful acquire must be paired with a release.
func (s *scheduler) acquire(ctx context.Context, e *schedEntry) error {
	w := &waiter{e: e, ready: make(chan struct{})}
	s.mu.Lock()
	s.waiters = append(s.waiters, w)
	s.pumpLocked()
	s.mu.Unlock()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		granted := w.granted
		if !granted {
			for i, o := range s.waiters {
				if o == w {
					s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
					break
				}
			}
		}
		s.mu.Unlock()
		if granted {
			// The grant raced the cancellation; hand the ticket back.
			s.release(e)
		}
		return ctx.Err()
	}
}

// release returns a ticket and re-pumps, so the fairest waiter runs
// immediately.
func (s *scheduler) release(e *schedEntry) {
	s.mu.Lock()
	s.inflight--
	if e.lim != nil {
		e.lim.inflight--
	}
	s.pumpLocked()
	s.mu.Unlock()
}

// poke re-pumps against fresh capacity — called periodically by the
// server's janitor so workers joining mid-run widen the gate without
// waiting for the next release.
func (s *scheduler) poke() {
	s.mu.Lock()
	s.pumpLocked()
	s.mu.Unlock()
}

// pumpLocked grants tickets while capacity remains, each to the
// eligible waiter with the smallest pass (admission order breaks ties).
// Callers hold s.mu.
func (s *scheduler) pumpLocked() {
	for {
		cap := s.capacity()
		if cap < 1 {
			cap = 1
		}
		if s.inflight >= cap || len(s.waiters) == 0 {
			return
		}
		best := -1
		for i, w := range s.waiters {
			if w.e.lim != nil && w.e.lim.inflight >= w.e.lim.cap {
				continue // this client is at its cap
			}
			if best < 0 || fairer(w.e, s.waiters[best].e) {
				best = i
			}
		}
		if best < 0 {
			return // every waiter is client-capped
		}
		w := s.waiters[best]
		s.waiters = append(s.waiters[:best], s.waiters[best+1:]...)
		w.granted = true
		s.inflight++
		s.vtime = w.e.pass
		w.e.pass += w.e.stride
		if w.e.lim != nil {
			w.e.lim.inflight++
		}
		close(w.ready)
	}
}

// fairer reports whether entry a deserves the next ticket over b:
// smaller virtual-time pass first, earlier admission on a tie.
func fairer(a, b *schedEntry) bool {
	if a.pass != b.pass {
		return a.pass < b.pass
	}
	return a.seq < b.seq
}
