package exp

import (
	"bytes"
	"context"
	"encoding"
	"encoding/json"
	"math"
	"testing"

	"faultmem/internal/mc"
)

// shardForm is a shard type with a binary form, seen through a pointer.
type shardForm interface {
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// ablationShards are ablation shard values covering every field: zero
// values, the edge floats a mean can take, a negative or unknown scheme,
// and a shard error.
func ablationShards() []shardForm {
	return []shardForm{
		&AblationMultiFaultRow{},
		&AblationMultiFaultRow{NFM: 5, FaultsPerRow: 4, MeanMSEBest: 1.5e9, MeanMSEPaper: math.Inf(1), PaperPenalty: math.NaN()},
		&AblationMultiFaultRow{NFM: -1, FaultsPerRow: math.MaxInt32, MeanMSEBest: -0.0},
		&AblationTransientPoint{},
		&AblationTransientPoint{Row: AblationTransientRow{Scheme: ProtECC, TransientRate: 1e-4, MeanMSE: 3.25}},
		&AblationTransientPoint{Row: AblationTransientRow{Scheme: Protection(-3)}, Err: "exp: ablate-transient arm exposes no bit-cell array"},
	}
}

// checkCanonical decodes b into first and, if that succeeds, checks that
// the decoded value re-encodes to exactly b (one encoding per value),
// that second decodes that encoding to the same bytes again, and that
// first does not alias its input.
func checkCanonical(t *testing.T, b []byte, first, second shardForm) {
	t.Helper()
	in := append([]byte(nil), b...)
	if first.UnmarshalBinary(in) != nil {
		return
	}
	clear(in)
	enc, err := first.AppendBinary(nil)
	if err != nil || !bytes.Equal(enc, b) {
		t.Fatalf("%T: decode -> encode changed the bytes (%v)", first, err)
	}
	if err := second.UnmarshalBinary(enc); err != nil {
		t.Fatalf("%T: decode of re-encoded shard: %v", first, err)
	}
	if again, err := second.AppendBinary(nil); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("%T: decode -> encode -> decode changed the encoding (%v)", first, err)
	}
}

// TestAblationShardFormsRoundTrip: every ablation shard decodes from its
// own encoding, and a truncation or a trailing byte fails.
func TestAblationShardFormsRoundTrip(t *testing.T) {
	fresh := func(v shardForm) shardForm {
		if _, ok := v.(*AblationMultiFaultRow); ok {
			return new(AblationMultiFaultRow)
		}
		return new(AblationTransientPoint)
	}
	for i, v := range ablationShards() {
		b, err := v.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		back := fresh(v)
		if err := back.UnmarshalBinary(b); err != nil {
			t.Fatalf("shard %d (%T): %v", i, v, err)
		}
		checkCanonical(t, b, back, fresh(v))
		if err := fresh(v).UnmarshalBinary(b[:len(b)-1]); err == nil {
			t.Errorf("shard %d (%T): truncation decoded", i, v)
		}
		if err := fresh(v).UnmarshalBinary(append(b, 0)); err == nil {
			t.Errorf("shard %d (%T): trailing byte decoded", i, v)
		}
	}
	// A lying error length.
	b, _ := (&AblationTransientPoint{Err: "x"}).AppendBinary(nil)
	b[24] = 0xFF
	if err := new(AblationTransientPoint).UnmarshalBinary(b); err == nil {
		t.Error("error length lie decoded")
	}
}

// FuzzAblationShardDecode feeds arbitrary bytes to the decoders a
// worker's ablate-multifault and ablate-transient shards reach. Neither
// may panic, and whatever decodes must pass checkCanonical. The seeds
// are every ablationShards encoding, its truncations and each
// single-byte overwrite with 0xFF, which makes the error length lie.
func FuzzAblationShardDecode(f *testing.F) {
	for _, v := range ablationShards() {
		b, err := v.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for i := range b {
			f.Add(b[:i])
			lie := append([]byte(nil), b...)
			lie[i] = 0xFF
			f.Add(lie)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkCanonical(t, b, new(AblationMultiFaultRow), new(AblationMultiFaultRow))
		checkCanonical(t, b, new(AblationTransientPoint), new(AblationTransientPoint))
	})
}

// firstShardJob runs the named experiment until its first engine run
// hands shard 0 to the executor, and returns that job and its value.
func firstShardJob(tb testing.TB, name string, r *Runner) (mc.ShardJob, any) {
	tb.Helper()
	var job mc.ShardJob
	var v any
	r.Exec = func(sj mc.ShardJob) (any, error) {
		if sj.Shard != 0 || v != nil {
			return nil, mc.ErrShardSkipped
		}
		job, v = sj, sj.Run()
		return v, nil
	}
	Run(context.Background(), name, r) // fails with mc.ErrPartialRun
	if v == nil {
		tb.Fatalf("%s handed no shard 0 to the executor", name)
	}
	return job, v
}

// BenchmarkShardCodec encodes and decodes one shard through the job's
// Encode and Decode, the wire's codec: shard 0 of a default fig5 (its
// seven arms' accumulators) and of serve-mix's fig7 KNN campaign (a
// workload.ShardOut). Bytes per op are the encoded size.
func BenchmarkShardCodec(b *testing.B) {
	seed := int64(7)
	for _, c := range []struct {
		name, experiment string
		r                *Runner
	}{
		{"fig5", "fig5", &Runner{Seed: &seed}},
		{"fig7-knn", "fig7", &Runner{Seed: &seed,
			Params: json.RawMessage(`[{"App":2,"Rows":4096,"Pcell":0.001,"Trials":16}]`)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			job, v := firstShardJob(b, c.experiment, c.r)
			enc, err := job.Encode(v)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				enc, err := job.Encode(v)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := job.Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
