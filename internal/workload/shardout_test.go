package workload

import (
	"bytes"
	"math"
	"testing"

	"faultmem/internal/memstore"
	"faultmem/internal/wire"
)

// shardOuts are ShardOut values covering every field: empty, qualities
// only (with the edge floats a quality ratio can take), counters, and a
// trial error.
func shardOuts() []ShardOut {
	return []ShardOut{
		{},
		{Qs: []float64{1, 0.25, 0, -0.5, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}},
		{
			Qs: []float64{1, 1, 0.75, 0.5},
			Recovery: []memstore.RecoveryStats{
				{Flagged: 7, Retries: 14, Recovered: 3, Restored: 4},
				{BudgetDenied: math.MaxUint64},
			},
		},
		{Qs: []float64{0.5}, Err: "workload: fit diverged"},
	}
}

// TestShardOutBinaryRoundTrip: every field survives the form bit for
// bit, and the form has one encoding per value.
func TestShardOutBinaryRoundTrip(t *testing.T) {
	for i, o := range shardOuts() {
		b, err := o.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var back ShardOut
		if err := back.UnmarshalBinary(b); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(back.Qs) != len(o.Qs) || len(back.Recovery) != len(o.Recovery) || back.Err != o.Err {
			t.Fatalf("shard %d: decoded %+v, want %+v", i, back, o)
		}
		for j, q := range o.Qs {
			if math.Float64bits(back.Qs[j]) != math.Float64bits(q) {
				t.Fatalf("shard %d quality %d: %g, want %g", i, j, back.Qs[j], q)
			}
		}
		for j, st := range o.Recovery {
			if back.Recovery[j] != st {
				t.Fatalf("shard %d arm %d: counters %+v, want %+v", i, j, back.Recovery[j], st)
			}
		}
		again, err := back.AppendBinary(nil)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("shard %d: re-encoding differs (%v)", i, err)
		}
	}
}

// TestShardOutBinaryRejectsMalformed: a count that overstates the bytes
// left, a truncation and trailing bytes all fail decode.
func TestShardOutBinaryRejectsMalformed(t *testing.T) {
	valid, err := shardOuts()[2].AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	recoveryAt := 8 + 8*4 // after the quality count and four qualities
	cases := map[string][]byte{
		"empty input":      nil,
		"quality lie":      append(wire.AppendUint64(nil, 5), valid[8:]...),
		"huge quality":     append(bytes.Repeat([]byte{0xFF}, 8), valid[8:]...),
		"recovery lie":     append(append(append([]byte(nil), valid[:recoveryAt]...), wire.AppendUint64(nil, 3)...), valid[recoveryAt+8:]...),
		"error length lie": append(append([]byte(nil), valid[:len(valid)-8]...), wire.AppendUint64(nil, 1)...),
		"truncated":        valid[:len(valid)-1],
		"trailing bytes":   append(append([]byte(nil), valid...), 0),
	}
	for name, b := range cases {
		var o ShardOut
		if err := o.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzShardOutDecode feeds arbitrary bytes to the decoder a worker's
// fig7, workloads or recovery shard reaches. It may not panic; whatever
// decodes must re-encode to exactly the input, decode again to the same
// encoding, and not alias the input. The seeds are every shardOuts
// encoding, its truncations and each single-byte overwrite with 0xFF,
// which makes every count lie.
func FuzzShardOutDecode(f *testing.F) {
	for _, o := range shardOuts() {
		b, err := o.AppendBinary(nil)
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
		in := append([]byte(nil), b...)
		var first ShardOut
		if first.UnmarshalBinary(in) != nil {
			return
		}
		clear(in)
		enc, err := first.AppendBinary(nil)
		if err != nil || !bytes.Equal(enc, b) {
			t.Fatalf("decode -> encode changed the bytes (%v)", err)
		}
		var second ShardOut
		if err := second.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode of re-encoded shard: %v", err)
		}
		if again, err := second.AppendBinary(nil); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("decode -> encode -> decode changed the encoding (%v)", err)
		}
	})
}
