package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		w    int
		want uint64
	}{
		{0, 0},
		{1, 1},
		{4, 0xF},
		{8, 0xFF},
		{16, 0xFFFF},
		{32, 0xFFFFFFFF},
		{63, 0x7FFFFFFFFFFFFFFF},
		{64, 0xFFFFFFFFFFFFFFFF},
	}
	for _, c := range cases {
		if got := Mask(c.w); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.w, got, c.want)
		}
	}
}

func TestMaskPanics(t *testing.T) {
	for _, w := range []int{-1, 65, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Mask(%d) did not panic", w)
				}
			}()
			Mask(w)
		}()
	}
}

func TestRotateRightBasic(t *testing.T) {
	// 32-bit rotate: bit 0 moves to position 31 under a rotate by 1.
	if got := RotateRight(1, 32, 1); got != 1<<31 {
		t.Errorf("RotateRight(1, 32, 1) = %#x, want %#x", got, uint64(1)<<31)
	}
	// Paper example (Fig. 3 bottom word): W=32, T=29 moves the LSB to
	// physical position 3 (the faulty cell).
	if got := RotateRight(1, 32, 29); got != 1<<3 {
		t.Errorf("RotateRight(1, 32, 29) = %#x, want bit 3 set", got)
	}
	// Rotation by the word width is the identity.
	if got := RotateRight(0xDEADBEEF, 32, 32); got != 0xDEADBEEF {
		t.Errorf("RotateRight by W changed the value: %#x", got)
	}
	// Rotation of zero is zero.
	if got := RotateRight(0, 32, 7); got != 0 {
		t.Errorf("RotateRight(0) = %#x", got)
	}
}

func TestRotateLeftBasic(t *testing.T) {
	if got := RotateLeft(1<<31, 32, 1); got != 1 {
		t.Errorf("RotateLeft(1<<31, 32, 1) = %#x, want 1", got)
	}
	if got := RotateLeft(0xF, 16, 4); got != 0xF0 {
		t.Errorf("RotateLeft(0xF, 16, 4) = %#x, want 0xF0", got)
	}
}

func TestRotateInverseProperty(t *testing.T) {
	f := func(v uint64, wRaw uint8, nRaw uint16) bool {
		w := int(wRaw)%64 + 1
		n := int(nRaw)
		v &= Mask(w)
		return RotateLeft(RotateRight(v, w, n), w, n) == v &&
			RotateRight(RotateLeft(v, w, n), w, n) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRotatePreservesPopcount(t *testing.T) {
	f := func(v uint64, wRaw uint8, nRaw uint16) bool {
		w := int(wRaw)%64 + 1
		v &= Mask(w)
		return OnesCount(RotateRight(v, w, int(nRaw)), w) == OnesCount(v, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRotateBitMapping(t *testing.T) {
	// Bit i of the input must appear at (i - n) mod w after RotateRight.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		w := rng.Intn(64) + 1
		i := rng.Intn(w)
		n := rng.Intn(3 * w)
		v := uint64(1) << uint(i)
		got := RotateRight(v, w, n)
		wantPos := ((i-n)%w + w) % w
		if got != uint64(1)<<uint(wantPos) {
			t.Fatalf("w=%d i=%d n=%d: got %#x, want bit %d", w, i, n, got, wantPos)
		}
	}
}

func TestBitSetFlip(t *testing.T) {
	// Bit reads a bit set and flipped with the word operators.
	v := uint64(1) << 5
	if Bit(v, 5) != 1 || Bit(v, 4) != 0 {
		t.Errorf("Bit of %#x: bit 5 = %d, bit 4 = %d", v, Bit(v, 5), Bit(v, 4))
	}
	v ^= 1 << 63
	if Bit(v, 63) != 1 {
		t.Error("Bit(63) of a flipped bit 63 != 1")
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		v    uint64
		w    int
		want int64
	}{
		{0, 32, 0},
		{1, 32, 1},
		{0x7FFFFFFF, 32, 2147483647},
		{0x80000000, 32, -2147483648},
		{0xFFFFFFFF, 32, -1},
		{0x8000, 16, -32768},
		{0x7FFF, 16, 32767},
		{0xFF, 8, -1},
		{0x80, 8, -128},
		{0xFFFFFFFFFFFFFFFF, 64, -1},
	}
	for _, c := range cases {
		if got := SignExtend(c.v, c.w); got != c.want {
			t.Errorf("SignExtend(%#x, %d) = %d, want %d", c.v, c.w, got, c.want)
		}
	}
}

func TestErrorMagnitudeMatchesFlipMagnitude(t *testing.T) {
	// For a single-bit error pattern, the two's-complement error magnitude
	// equals 2^b for every stored datum, including across the sign bit.
	f := func(v uint64, bRaw uint8) bool {
		b := int(bRaw) % 32
		e := uint64(1) << uint(b)
		return ErrorMagnitude2c(v, e, 32) == uint64(1)<<uint(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorMagnitudeZeroPattern(t *testing.T) {
	f := func(v uint64) bool { return ErrorMagnitude2c(v, 0, 32) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnesCountAndParity(t *testing.T) {
	if got := OnesCount(0xFF, 8); got != 8 {
		t.Errorf("OnesCount(0xFF,8) = %d", got)
	}
	if got := OnesCount(0xFF00, 8); got != 0 {
		t.Errorf("OnesCount masks width: got %d", got)
	}
	// Parity is the count's low bit.
	if OnesCount(0b101, 3)&1 != 0 || OnesCount(0b100, 3)&1 != 1 {
		t.Error("OnesCount parity of 0b101 / 0b100 wrong")
	}
}

func BenchmarkRotateRight32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RotateRight(0xDEADBEEF, 32, i&31)
	}
}
