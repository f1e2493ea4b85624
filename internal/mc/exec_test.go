package mc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// execShard is a representative shard value with a binary form, so the
// job's Encode/Decode thunks can round-trip it.
type execShard struct {
	Shard int
	Sum   float64
}

func (s execShard) AppendBinary(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Shard))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Sum)), nil
}

func (s *execShard) UnmarshalBinary(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("execShard form is %d bytes, want 16", len(b))
	}
	s.Shard = int(binary.LittleEndian.Uint64(b))
	s.Sum = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return nil
}

func execFn(shard int, rng *rand.Rand) execShard {
	s := execShard{Shard: shard}
	for i := 0; i < 100; i++ {
		s.Sum += rng.Float64()
	}
	return s
}

// TestExecLocalPassthroughIsBitIdentical: an executor that runs every
// shard through job.Run (the coordinator's local-fallback path) must yield
// exactly what the plain engine yields.
func TestExecLocalPassthroughIsBitIdentical(t *testing.T) {
	want := run(t, 4, 16, 42, execFn)
	env := Env{Tag: "t", Exec: func(job ShardJob) (any, error) { return job.Run(), nil }}
	got, err := RunEnv(env, 4, 16, 42, execFn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("executor passthrough diverged from the plain engine")
	}
}

// TestExecEncodeDecodeRoundTrip: routing every shard through the wire
// codec (Encode then Decode, the remote path without a network) must be
// bit-identical to the plain engine.
func TestExecEncodeDecodeRoundTrip(t *testing.T) {
	want := run(t, 4, 16, 42, execFn)
	env := Env{Tag: "t", Exec: func(job ShardJob) (any, error) {
		b, err := job.Encode(job.Run())
		if err != nil {
			return nil, err
		}
		return job.Decode(b)
	}}
	got, err := RunEnv(env, 4, 16, 42, execFn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wire round trip diverged from the plain engine")
	}
}

// TestExecShardWithoutBinaryFormStaysLocal: a shard type without the
// two methods fails Encode and Decode, the signal executors take to
// compute the shard on their own host, and the run still completes
// through job.Run.
func TestExecShardWithoutBinaryFormStaysLocal(t *testing.T) {
	type plain struct{ Shard int }
	fn := func(shard int, _ *rand.Rand) plain { return plain{shard} }
	var encodeFailed, decodeFailed atomic.Int32
	env := Env{Tag: "t", Exec: func(job ShardJob) (any, error) {
		v := job.Run()
		if _, err := job.Encode(v); err != nil {
			encodeFailed.Add(1)
		}
		if _, err := job.Decode(nil); err != nil {
			decodeFailed.Add(1)
		}
		return v, nil
	}}
	got, err := RunEnv(env, 2, 8, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, run(t, 2, 8, 1, fn)) {
		t.Fatal("local fallback diverged from the plain engine")
	}
	if encodeFailed.Load() != 8 || decodeFailed.Load() != 8 {
		t.Fatalf("%d of 8 encodes and %d of 8 decodes failed, want all", encodeFailed.Load(), decodeFailed.Load())
	}
	// Half a form is no form: a T whose pointer cannot decode must not
	// encode either, or a worker would ship what the coordinator refuses.
	half := Env{Tag: "t", Exec: func(job ShardJob) (any, error) {
		if _, err := job.Encode(job.Run()); err == nil {
			t.Error("a shard type without UnmarshalBinary encoded")
		}
		return job.Run(), nil
	}}
	if _, err := RunEnv(half, 1, 2, 1, func(int, *rand.Rand) appendOnly { return appendOnly{} }); err != nil {
		t.Fatal(err)
	}
}

// appendOnly has AppendBinary but no UnmarshalBinary.
type appendOnly struct{}

func (appendOnly) AppendBinary(b []byte) ([]byte, error) { return b, nil }

// TestExecJobMetadata: every job must carry the run's tag, a unique shard
// index, and the total shard count.
func TestExecJobMetadata(t *testing.T) {
	seen := make([]int32, 8)
	env := Env{Tag: "fig5", Exec: func(job ShardJob) (any, error) {
		if job.Tag != "fig5" || job.Shards != 8 || job.Shard < 0 || job.Shard >= 8 {
			t.Errorf("bad job metadata: %+v", job)
		}
		atomic.AddInt32(&seen[job.Shard], 1)
		return job.Run(), nil
	}}
	if _, err := RunEnv(env, 2, 8, 1, execFn); err != nil {
		t.Fatal(err)
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("shard %d executed %d times, want 1", s, n)
		}
	}
}

// TestExecSkipReturnsPartialRun: an executor that declines shards leaves
// holes, and the engine must refuse to hand back the partial slice.
func TestExecSkipReturnsPartialRun(t *testing.T) {
	var captured atomic.Int32
	env := Env{Exec: func(job ShardJob) (any, error) {
		if job.Shard != 3 {
			return nil, ErrShardSkipped
		}
		captured.Add(1)
		return job.Run(), nil
	}}
	out, err := RunEnv(env, 4, 8, 1, execFn)
	if !errors.Is(err, ErrPartialRun) {
		t.Fatalf("err = %v, want ErrPartialRun", err)
	}
	if out != nil {
		t.Fatal("partial run returned a result slice")
	}
	if captured.Load() != 1 {
		t.Fatalf("selected shard executed %d times, want 1", captured.Load())
	}
}

// TestExecErrorAbortsRun: a non-skip executor error must fail the run and
// stop further claims.
func TestExecErrorAbortsRun(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	env := Env{Exec: func(job ShardJob) (any, error) {
		calls.Add(1)
		return nil, boom
	}}
	if _, err := RunEnv(env, 1, 64, 1, execFn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// 64 goroutines race one claim each at worst; the abort must prevent
	// a second round of claims per goroutine.
	if calls.Load() > 64 {
		t.Fatalf("%d executor calls after abort, want <= 64", calls.Load())
	}
}

// TestExecWrongTypeFails: an executor returning the wrong dynamic type is
// a run failure, not a panic.
func TestExecWrongTypeFails(t *testing.T) {
	env := Env{Exec: func(job ShardJob) (any, error) { return "nope", nil }}
	if _, err := RunEnv(env, 1, 4, 1, execFn); err == nil {
		t.Fatal("wrong-typed executor result was accepted")
	}
}

// TestExecHonorsCancellation: a blocked executor must not wedge the run
// when the context dies.
func TestExecHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	env := Env{Ctx: ctx, Exec: func(job ShardJob) (any, error) {
		<-job.Ctx.Done()
		return nil, job.Ctx.Err()
	}}
	go cancel()
	if _, err := RunEnv(env, 1, 8, 1, execFn); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecProgressCountsComputedShards: OnShard fires for executor-backed
// shards exactly as for local ones.
func TestExecProgressCountsComputedShards(t *testing.T) {
	var last atomic.Int32
	env := Env{
		OnShard: func(done, total int) { last.Store(int32(done)) },
		Exec:    func(job ShardJob) (any, error) { return job.Run(), nil },
	}
	if _, err := RunEnv(env, 2, 16, 1, execFn); err != nil {
		t.Fatal(err)
	}
	if last.Load() != 16 {
		t.Fatalf("last progress = %d, want 16", last.Load())
	}
}
