package wire

import (
	"bytes"
	"math"
	"testing"
)

// TestRoundTrip: every primitive reads back what was appended, bit for
// bit, in little-endian order.
func TestRoundTrip(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	b := AppendUint64(nil, 0x0102030405060708)
	if !bytes.Equal(b, []byte{8, 7, 6, 5, 4, 3, 2, 1}) {
		t.Fatalf("AppendUint64 wrote % x, want little-endian", b)
	}
	b = AppendInt(b, -7)
	b = AppendFloat64(b, math.Pi)
	b = AppendUint64(b, uint64(len(xs)))
	b = AppendFloat64s(b, xs)
	b = AppendString(b, "shard")
	b = AppendString(b, []byte("blob"))
	b = AppendString(b, []byte(nil))
	b = append(b, 0xAB)

	r := NewReader(b)
	if v := r.Uint64(); v != 0x0102030405060708 {
		t.Fatalf("Uint64 = %#x", v)
	}
	if v := r.Int(); v != -7 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Float64(); v != math.Pi {
		t.Fatalf("Float64 = %g", v)
	}
	got := r.Float64s(r.Count(8))
	if len(got) != len(xs) {
		t.Fatalf("Float64s read %d values, want %d", len(got), len(xs))
	}
	for i := range xs {
		if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("Float64s[%d] = %g, want %g", i, got[i], xs[i])
		}
	}
	if s := r.Str(); s != "shard" {
		t.Fatalf("String = %q", s)
	}
	blob := r.Bytes()
	if string(blob) != "blob" {
		t.Fatalf("Bytes = %q", blob)
	}
	if empty := r.Bytes(); empty != nil {
		t.Fatalf("empty Bytes = %#v, want nil", empty)
	}
	if v := r.Byte(); v != 0xAB {
		t.Fatalf("Byte = %#x", v)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Decoded slices are copies.
	clear(b)
	if math.Float64bits(got[2]) != math.Float64bits(1.5) {
		t.Fatal("Float64s aliases its input")
	}
	if string(blob) != "blob" {
		t.Fatal("Bytes aliases its input")
	}
}

// TestReaderFailures: truncations, counts that overstate the bytes left
// and trailing bytes fail; the first failure sticks and later reads
// return zero values.
func TestReaderFailures(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.Uint64() != 0 || r.Err() == nil {
		t.Fatal("a truncated Uint64 read succeeded")
	}
	first := r.Err()
	if r.Byte() != 0 || r.Float64s(1) != nil || r.Str() != "" || r.Bytes() != nil || r.Close() != first {
		t.Fatal("reads after a failure did not return zero values and the first failure")
	}

	for name, b := range map[string][]byte{
		"count past the end":  append(AppendUint64(nil, 2), make([]byte, 15)...),
		"count of all ones":   append(bytes.Repeat([]byte{0xFF}, 8), make([]byte, 64)...),
		"string past the end": append(AppendUint64(nil, 4), "abc"...),
		"blob past the end":   append(AppendUint64(nil, 4), "abc"...),
	} {
		r := NewReader(b)
		switch name {
		case "string past the end":
			r.Str()
		case "blob past the end":
			r.Bytes()
		default:
			r.Float64s(r.Count(8))
		}
		if r.Close() == nil {
			t.Errorf("%s: no failure", name)
		}
	}

	r = NewReader(AppendUint64(nil, 1))
	r.Byte()
	if r.Close() == nil {
		t.Error("trailing bytes: no failure")
	}
	r = NewReader(nil)
	r.Fail("bad %s", "value")
	if r.Close() == nil || r.Err().Error() != "bad value" {
		t.Errorf("Fail recorded %v", r.Err())
	}
}
