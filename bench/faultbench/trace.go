package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"faultmem/internal/mc"
)

// span is one timed interval at a layer boundary. Spans of one
// repetition or submission share Rep; Parent is the span that caused
// this one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Rep    int     `json:"rep"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() time.Duration { return time.Duration((s.End - s.Start) * 1e3) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// start opens a span now.
func (t *tracer) start(name string, parent, rep int) *openSpan {
	id := int(t.next.Add(1))
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Name: name, Rep: rep}, start: time.Now()}
}

// end closes the span now and returns its duration.
func (o *openSpan) end() time.Duration { return o.endAt(time.Now()) }

// endAt closes the span at a given instant.
func (o *openSpan) endAt(at time.Time) time.Duration {
	o.s.Start = us(o.start.Sub(o.t.origin))
	o.s.End = us(at.Sub(o.t.origin))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return at.Sub(o.start)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// record adds a span whose interval is already known.
func (t *tracer) record(name string, parent, rep int, from, to time.Time) int {
	o := t.start(name, parent, rep)
	o.start = from
	o.endAt(to)
	return o.s.ID
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover (children may overlap each
// other, as parallel shards do).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		covered := 0.0
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]float64) int {
			switch {
			case a[0] < b[0]:
				return -1
			case a[0] > b[0]:
				return 1
			}
			return 0
		})
		lo, hi := s.Start, s.Start
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		out[s.ID] = time.Duration((s.End - s.Start - covered) * 1e3)
	}
	return out
}

// writeTrace writes the spans and the per-name self-time totals to
// dir/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	self := selfTimes(spans)
	byName := map[string]float64{}
	for _, s := range spans {
		byName[s.Name] += float64(self[s.ID]) / 1e6
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, byName, spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}

// gobTally accumulates the wire-encoding cost of traced shards.
type gobTally struct {
	mu     sync.Mutex
	shards int
	bytes  int
	dur    time.Duration
}

// tracedExec is the shard executor of a traced campaign: each shard runs
// behind a semaphore of the campaign's worker count, so concurrency
// matches an untraced run, and is then gob-encoded and decoded as a
// remote worker's result would be. The decoded value is what the engine
// merges, so the result digest also checks the wire round trip.
func tracedExec(t *tracer, sem chan struct{}, campaignSpan, rep int, g *gobTally) mc.ExecFunc {
	return func(job mc.ShardJob) (any, error) {
		select {
		case sem <- struct{}{}:
		case <-job.Ctx.Done():
			return nil, job.Ctx.Err()
		}
		defer func() { <-sem }()
		sp := t.start("mc.shard", campaignSpan, rep)
		v := job.Run()
		sp.end()
		gs := t.start("sweep.gob", campaignSpan, rep)
		b, err := job.Encode(v)
		if err != nil {
			// A shard type the wire cannot carry runs on the host that
			// owns it, as the sweep service does.
			gs.end()
			return v, nil
		}
		out, err := job.Decode(b)
		d := gs.end()
		if err != nil {
			return nil, err
		}
		g.mu.Lock()
		g.shards++
		g.bytes += len(b)
		g.dur += d
		g.mu.Unlock()
		return out, nil
	}
}
