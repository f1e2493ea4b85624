// Package bits provides word-level bit manipulation helpers shared by the
// memory models, the bit-shuffling datapath, and the ECC codecs.
//
// All routines operate on W-bit words stored in the low bits of a uint64,
// with bit 0 the least-significant bit. Words up to 64 bits wide are
// supported; the paper's experiments use W = 32.
package bits

import "fmt"

// MaxWidth is the widest word the helpers accept.
const MaxWidth = 64

// Mask returns a mask with the low w bits set. It panics if w is outside
// [0, MaxWidth].
func Mask(w int) uint64 {
	if w < 0 || w > MaxWidth {
		panic(fmt.Sprintf("bits: width %d out of range [0,%d]", w, MaxWidth))
	}
	if w == MaxWidth {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// CheckWidth panics unless w is a supported word width (1..MaxWidth).
func CheckWidth(w int) {
	if w < 1 || w > MaxWidth {
		panic(fmt.Sprintf("bits: unsupported word width %d", w))
	}
}

// RotateRight circularly shifts the low w bits of v right by n positions.
// Bit i of the input appears at position (i - n) mod w of the output.
// n may be any non-negative value; it is reduced modulo w.
func RotateRight(v uint64, w, n int) uint64 {
	CheckWidth(w)
	if n < 0 {
		panic("bits: negative rotate amount")
	}
	n %= w
	if n == 0 {
		return v & Mask(w)
	}
	v &= Mask(w)
	return ((v >> uint(n)) | (v << uint(w-n))) & Mask(w)
}

// RotateLeft circularly shifts the low w bits of v left by n positions.
// Bit i of the input appears at position (i + n) mod w of the output.
// RotateLeft(RotateRight(v, w, n), w, n) == v for any v within width w.
func RotateLeft(v uint64, w, n int) uint64 {
	CheckWidth(w)
	if n < 0 {
		panic("bits: negative rotate amount")
	}
	n %= w
	return RotateRight(v, w, w-n)
}

// Bit returns bit i of v as 0 or 1.
func Bit(v uint64, i int) uint64 {
	if i < 0 || i >= MaxWidth {
		panic(fmt.Sprintf("bits: bit index %d out of range", i))
	}
	return (v >> uint(i)) & 1
}

// ErrorMagnitude2c returns |decode(v ^ e) - decode(v)| interpreted as
// w-bit two's complement integers, where e is an error pattern
// (XOR mask). This is the output error magnitude a set of bit flips
// inflicts on a stored two's-complement value.
func ErrorMagnitude2c(v, e uint64, w int) uint64 {
	CheckWidth(w)
	a := SignExtend(v&Mask(w), w)
	b := SignExtend((v^e)&Mask(w), w)
	d := b - a
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// SignExtend interprets the low w bits of v as a two's complement integer
// and returns its value as an int64.
func SignExtend(v uint64, w int) int64 {
	CheckWidth(w)
	v &= Mask(w)
	if w == 64 {
		return int64(v)
	}
	sign := uint64(1) << uint(w-1)
	if v&sign != 0 {
		return int64(v | ^Mask(w))
	}
	return int64(v)
}

// OnesCount returns the number of set bits in the low w bits of v.
func OnesCount(v uint64, w int) int {
	CheckWidth(w)
	v &= Mask(w)
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}
