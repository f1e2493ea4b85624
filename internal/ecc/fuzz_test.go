package ecc

import "testing"

// FuzzDecodeStatusConsistency pins the table kernels to the
// mask-and-popcount reference on arbitrary (mostly corrupt) codewords:
// for each code, Decode and DecodeBatch must return the reference's
// data, status and repaired position (and DecodeBatch its counts),
// Encode of the same word read as a datum must equal the reference's,
// and a Corrected result must re-encode to a valid codeword (SECDED
// repaired exactly one bit, so the repaired word is a true codeword).
func FuzzDecodeStatusConsistency(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(^uint64(0))
	f.Add(uint64(0xdeadbeefcafe))
	f.Add(H39_32().Encode(0x12345678))
	f.Add(H39_32().Encode(0x12345678) ^ 1<<7)
	f.Add(H39_32().Encode(0x12345678) ^ 1<<7 ^ 1<<21)
	var codes []*Code
	var refs []*refCode
	for _, k := range []int{32, 16, 8, 1, 57} {
		codes = append(codes, MustNew(k))
		refs = append(refs, newRef(k))
	}
	f.Fuzz(func(t *testing.T, cw uint64) {
		for ci, c := range codes {
			ref := refs[ci]
			if got, want := c.Encode(cw), ref.encode(cw); got != want {
				t.Fatalf("%s: Encode(%#x) = %#x, reference %#x", c.Name(), cw, got, want)
			}
			data, st, fixedPos := c.Decode(cw)
			if wantData, wantSt, wantPos := ref.decode(cw); data != wantData || st != wantSt || fixedPos != wantPos {
				t.Fatalf("%s: Decode(%#x) = (%#x, %v, %d), reference (%#x, %v, %d)",
					c.Name(), cw, data, st, fixedPos, wantData, wantSt, wantPos)
			}

			var dst [1]uint64
			var sts [1]Status
			corrected, uncorrectable := c.DecodeBatch(dst[:], []uint64{cw}, sts[:])
			if sts[0] != st || dst[0] != data {
				t.Fatalf("%s: DecodeBatch(%#x) = (%#x, %v), Decode = (%#x, %v)",
					c.Name(), cw, dst[0], sts[0], data, st)
			}
			wantCorr, wantUnc := uint64(0), uint64(0)
			switch st {
			case Corrected:
				wantCorr = 1
			case DetectedUncorrectable:
				wantUnc = 1
			}
			if corrected != wantCorr || uncorrectable != wantUnc {
				t.Fatalf("%s: DecodeBatch(%#x) counts (%d, %d), Decode status %v",
					c.Name(), cw, corrected, uncorrectable, st)
			}

			switch st {
			case OK:
				// An error-free word is a codeword of its own data.
				if got := c.Encode(data); got != cw&((uint64(1)<<uint(c.n))-1) {
					t.Fatalf("%s: OK word %#x != Encode(%#x) = %#x", c.Name(), cw, data, got)
				}
			case Corrected:
				// The repaired word (one bit flipped back) must be the
				// valid codeword of the recovered data.
				if fixedPos < 0 || fixedPos >= c.n {
					t.Fatalf("%s: corrected decode repaired bit %d outside [0,%d)", c.Name(), fixedPos, c.n)
				}
				repaired := (cw & ((uint64(1) << uint(c.n)) - 1)) ^ uint64(1)<<uint(fixedPos)
				if got := c.Encode(data); got != repaired {
					t.Fatalf("%s: corrected %#x repaired to %#x, Encode(%#x) = %#x",
						c.Name(), cw, repaired, data, got)
				}
				if d2, st2, _ := c.Decode(repaired); d2 != data || st2 != OK {
					t.Fatalf("%s: repaired word %#x re-decodes to (%#x, %v)", c.Name(), repaired, d2, st2)
				}
			}
		}
	})
}
