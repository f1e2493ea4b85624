package ecc

import "testing"

// FuzzDecodeStatusConsistency pins the two decode entrypoints to each
// other on arbitrary (mostly corrupt) codewords: for every preset code,
// Decode's status must agree word-for-word with DecodeBatch's status
// and aggregate counts, the recovered data must match, and a Corrected
// result must re-encode to a valid codeword (SECDED repaired exactly
// one bit, so the repaired word is a true codeword).
func FuzzDecodeStatusConsistency(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(^uint64(0))
	f.Add(uint64(0xdeadbeefcafe))
	f.Add(H39_32().Encode(0x12345678))
	f.Add(H39_32().Encode(0x12345678) ^ 1<<7)
	f.Add(H39_32().Encode(0x12345678) ^ 1<<7 ^ 1<<21)
	codes := []*Code{H39_32(), H22_16(), H13_8()}
	f.Fuzz(func(t *testing.T, cw uint64) {
		for _, c := range codes {
			data, st, fixedPos := c.Decode(cw)

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
				if fixedPos != -1 {
					t.Fatalf("%s: OK decode reported repaired bit %d", c.Name(), fixedPos)
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
			case DetectedUncorrectable:
				if fixedPos != -1 {
					t.Fatalf("%s: uncorrectable decode reported repaired bit %d", c.Name(), fixedPos)
				}
			}
		}
	})
}
