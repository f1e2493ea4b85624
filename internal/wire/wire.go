// Package wire holds the little-endian primitives of every payload the
// sweep protocol carries: its messages and the binary forms of the
// Monte-Carlo shard values inside them (docs/PROTOCOL.md lists each
// layout). A count or integer is 8 bytes, a float its 8 IEEE-754 bytes,
// and a string or blob a count followed by its bytes.
//
// Reader is the decoding half. It is strict: every count is checked
// against the bytes left before anything is allocated, decoded slices
// are fresh copies that never alias the input, and Close refuses
// trailing bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUint64 appends v.
func AppendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendInt appends v as a two's-complement int64.
func AppendInt(b []byte, v int) []byte { return AppendUint64(b, uint64(int64(v))) }

// AppendFloat64 appends f's IEEE-754 bits.
func AppendFloat64(b []byte, f float64) []byte { return AppendUint64(b, math.Float64bits(f)) }

// AppendFloat64s appends every element of xs, without a count.
func AppendFloat64s(b []byte, xs []float64) []byte {
	for _, x := range xs {
		b = AppendFloat64(b, x)
	}
	return b
}

// AppendString appends len(s) and then s, a string or a byte blob.
func AppendString[S ~string | ~[]byte](b []byte, s S) []byte {
	return append(AppendUint64(b, uint64(len(s))), s...)
}

// Reader is a bounds-checked cursor over one encoding. The first failure
// sticks: later reads return zero values and no slices, and Err and
// Close report that failure.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Fail records a failure, unless one is already recorded. Decoders call
// it for values that parse but that no encoder could have written.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Close returns the first failure, or an error when bytes are left over:
// a decoder must consume its input exactly.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.Fail("truncated: need %d bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uint64 reads a uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads an int64 and fails when it does not fit an int.
func (r *Reader) Int() int {
	v := int64(r.Uint64())
	if int64(int(v)) != v {
		r.Fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Float64 reads a float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Count reads the count of a run of elements that take at least size
// bytes each, and fails when that many could not fit in the bytes left.
// Check a count with Count before allocating for it.
func (r *Reader) Count(size int) int {
	n := r.Uint64()
	if r.err == nil && n > uint64(len(r.b)/size) {
		r.Fail("count %d of %d-byte elements exceeds the %d bytes left", n, size, len(r.b))
		return 0
	}
	return int(n)
}

// Float64s reads n floats into a fresh slice (nil when n is 0).
func (r *Reader) Float64s(n int) []float64 {
	b := r.take(8 * n)
	if len(b) == 0 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

// Bytes reads a count-prefixed blob into a fresh slice (nil when empty).
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.take(r.Count(1))...) }

// Str reads a count-prefixed string. (It is not named String, which
// would make a Reader a fmt.Stringer that consumes input when printed.)
func (r *Reader) Str() string { return string(r.take(r.Count(1))) }
