package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"faultmem/internal/mc"
)

// shardLog is a recording Exec: it computes every shard locally and
// keeps each shard's wire encoding under its engine-run tag. A shard
// that does not encode would never travel — a worker refuses its job
// and the coordinator computes the whole run locally — so it is
// recorded as unshipped.
type shardLog struct {
	sem chan struct{}

	mu        sync.Mutex
	runs      map[string][][]byte // tag -> encoding per shard
	dups      []string            // "tag#shard" seen twice: a second run under one tag
	unshipped []string            // "tag#shard: error" for shards Encode refused
}

func newShardLog() *shardLog {
	return &shardLog{sem: make(chan struct{}, runtime.GOMAXPROCS(0)), runs: map[string][][]byte{}}
}

func (l *shardLog) exec(sj mc.ShardJob) (any, error) {
	l.sem <- struct{}{}
	v := sj.Run()
	<-l.sem
	b, err := sj.Encode(v)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.unshipped = append(l.unshipped, fmt.Sprintf("%s#%d: %v", sj.Tag, sj.Shard, err))
	}
	shards, ok := l.runs[sj.Tag]
	if !ok {
		shards = make([][]byte, sj.Shards)
		l.runs[sj.Tag] = shards
	}
	if len(shards) != sj.Shards || shards[sj.Shard] != nil {
		l.dups = append(l.dups, fmt.Sprintf("%s#%d", sj.Tag, sj.Shard))
		return v, nil
	}
	shards[sj.Shard] = b
	return v, nil
}

func (l *shardLog) tags() []string {
	tags := make([]string, 0, len(l.runs))
	for tag := range l.runs {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return tags
}

// TestStageOnlyRunsMatchFullRuns pins the stage contract sweep workers
// rely on, for every registered experiment at its smoke budget: a full
// run opens each engine-run tag once, every shard it hands an executor
// has a binary form, a stage-only run (RunStage) of a tag opens that
// tag alone, and every shard of it encodes to the same bytes as the
// full run's shard.
func TestStageOnlyRunsMatchFullRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment once per engine run")
	}
	overrides := smokeParams()
	for _, name := range Experiments() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			full := newShardLog()
			r := &Runner{Quick: true, Params: overrides[name], Exec: full.exec}
			if _, err := Run(ctx, name, r); err != nil {
				t.Fatalf("full run: %v", err)
			}
			if len(full.dups) > 0 {
				t.Fatalf("full run opened a tag twice: %v", full.dups)
			}
			if len(full.unshipped) > 0 {
				t.Fatalf("shards without a binary form: %v", full.unshipped)
			}
			for _, tag := range full.tags() {
				if tag != name && !strings.HasPrefix(tag, name+"/") {
					t.Errorf("tag %q does not name %s", tag, name)
				}
				staged := newShardLog()
				r.Exec = staged.exec
				if err := RunStage(ctx, name, r, tag); err != nil {
					t.Fatalf("stage-only run of %q: %v", tag, err)
				}
				if got := staged.tags(); len(got) != 1 || got[0] != tag || len(staged.dups) > 0 {
					t.Fatalf("stage-only run of %q opened %v (repeats %v)", tag, got, staged.dups)
				}
				want, got := full.runs[tag], staged.runs[tag]
				if len(got) != len(want) {
					t.Fatalf("%q: stage-only run has %d shards, full run %d", tag, len(got), len(want))
				}
				for s := range want {
					if !bytes.Equal(got[s], want[s]) {
						t.Errorf("%q shard %d: stage-only encoding differs from the full run's", tag, s)
					}
				}
			}
			t.Logf("%s: %d engine runs %v", name, len(full.runs), full.tags())
		})
	}
}

// TestRunStageRejectsForeignTag: a tag must name an engine run of the
// experiment it is replayed under. A multi-stage campaign also refuses
// a tag under its own name that names none of its stages, before any
// engine run opens.
func TestRunStageRejectsForeignTag(t *testing.T) {
	r := &Runner{Quick: true, Exec: func(sj mc.ShardJob) (any, error) {
		t.Errorf("engine run %q opened", sj.Tag)
		return sj.Run(), nil
	}}
	for _, c := range []struct{ name, tag string }{
		{"fig7", ""},
		{"fig7", "workloads/rsort"},
		{"fig7", "fig7x/knn"},
		{"fig7", "fig7"},
		{"fig7", "fig7/bogus"},
		{"workloads", "workloads/bogus"},
		{"recovery", "recovery/bogus"},
	} {
		if err := RunStage(context.Background(), c.name, r, c.tag); err == nil {
			t.Errorf("RunStage(%s, %q) accepted a tag naming none of its engine runs", c.name, c.tag)
		}
	}
	var unknown *ErrUnknownExperiment
	if err := RunStage(context.Background(), "bogus", nil, "bogus"); !errors.As(err, &unknown) {
		t.Errorf("RunStage(bogus) = %v, want ErrUnknownExperiment", err)
	}
}
