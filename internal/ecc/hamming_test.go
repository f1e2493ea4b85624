package ecc

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestCodeParameters(t *testing.T) {
	cases := []struct {
		k, n, parity int
		name         string
	}{
		{32, 39, 7, "H(39,32)"}, // the paper's full-word SECDED
		{16, 22, 6, "H(22,16)"}, // the paper's P-ECC code
		{8, 13, 5, "H(13,8)"},
		{4, 8, 4, "H(8,4)"},
		{1, 4, 3, "H(4,1)"},
		{57, 64, 7, "H(64,57)"},
	}
	for _, c := range cases {
		code := MustNew(c.k)
		if code.CodewordBits() != c.n {
			t.Errorf("k=%d: n=%d, want %d", c.k, code.CodewordBits(), c.n)
		}
		if code.ParityBits() != c.parity {
			t.Errorf("k=%d: parity=%d, want %d", c.k, code.ParityBits(), c.parity)
		}
		if code.Name() != c.name {
			t.Errorf("k=%d: name=%q, want %q", c.k, code.Name(), c.name)
		}
		if code.DataBits() != c.k {
			t.Errorf("k=%d: DataBits=%d", c.k, code.DataBits())
		}
	}
}

func TestNewRejectsBadWidths(t *testing.T) {
	for _, k := range []int{0, -1, 58, 64} {
		if _, err := New(k); err == nil {
			t.Errorf("New(%d) accepted", k)
		}
	}
}

func TestPresets(t *testing.T) {
	if H39_32().Name() != "H(39,32)" || H22_16().Name() != "H(22,16)" {
		t.Error("preset names wrong")
	}
	if H39_32() != MustNew(32) || H22_16() != MustNew(16) {
		t.Error("presets are not the shared per-width codes")
	}
}

// TestNewSharesOneCodePerWidth builds codes from several goroutines at
// once, as parallel Monte-Carlo shards do: every caller of one width
// gets the same Code, and it encodes and decodes correctly.
func TestNewSharesOneCodePerWidth(t *testing.T) {
	const goroutines = 8
	got := make([][]*Code, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= 57; k++ {
				c := MustNew(k)
				if d, st, _ := c.Decode(c.Encode(uint64(g))); st != OK || d != uint64(g)&c.kMask {
					t.Errorf("k=%d: round trip of %d gave (%#x, %v)", k, g, d, st)
				}
				got[g] = append(got[g], c)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, c := range got[g] {
			if c != got[0][i] {
				t.Fatalf("goroutine %d got a second Code for k=%d", g, i+1)
			}
		}
	}
}

func TestEncodeDecodeCleanRoundTrip(t *testing.T) {
	for _, k := range []int{8, 16, 32, 57} {
		code := MustNew(k)
		mask := (uint64(1) << uint(k)) - 1
		f := func(v uint64) bool {
			v &= mask
			cw := code.Encode(v)
			data, st, _ := code.Decode(cw)
			return data == v && st == OK
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestCodewordHasEvenParity(t *testing.T) {
	code := H39_32()
	f := func(v uint64) bool {
		cw := code.Encode(v)
		pop := 0
		for x := cw; x != 0; x &= x - 1 {
			pop++
		}
		return pop%2 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllSingleErrorsCorrected(t *testing.T) {
	// Exhaustive over all error positions for both paper codes and a set
	// of random payloads: every single-bit error must be corrected to the
	// original datum.
	rng := rand.New(rand.NewSource(2))
	for _, code := range []*Code{H39_32(), H22_16(), MustNew(8)} {
		mask := (uint64(1) << uint(code.DataBits())) - 1
		for trial := 0; trial < 50; trial++ {
			v := rng.Uint64() & mask
			cw := code.Encode(v)
			for pos := 0; pos < code.CodewordBits(); pos++ {
				bad := cw ^ (uint64(1) << uint(pos))
				data, st, fixed := code.Decode(bad)
				if st != Corrected {
					t.Fatalf("%s: single error at %d -> status %v", code.Name(), pos, st)
				}
				if data != v {
					t.Fatalf("%s: single error at %d not corrected: got %#x want %#x",
						code.Name(), pos, data, v)
				}
				if fixed != pos {
					t.Fatalf("%s: fixed position %d, want %d", code.Name(), fixed, pos)
				}
			}
		}
	}
}

func TestAllDoubleErrorsDetected(t *testing.T) {
	// Exhaustive over all C(n,2) double errors for both paper codes:
	// SECDED must flag them as uncorrectable, never miscorrect silently.
	rng := rand.New(rand.NewSource(3))
	for _, code := range []*Code{H39_32(), H22_16()} {
		mask := (uint64(1) << uint(code.DataBits())) - 1
		n := code.CodewordBits()
		for trial := 0; trial < 10; trial++ {
			v := rng.Uint64() & mask
			cw := code.Encode(v)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					bad := cw ^ (uint64(1) << uint(i)) ^ (uint64(1) << uint(j))
					_, st, _ := code.Decode(bad)
					if st != DetectedUncorrectable {
						t.Fatalf("%s: double error (%d,%d) -> status %v",
							code.Name(), i, j, st)
					}
				}
			}
		}
	}
}

func TestDecodeStatusString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" ||
		DetectedUncorrectable.String() != "uncorrectable" {
		t.Error("status names wrong")
	}
	if Status(99).String() == "" {
		t.Error("unknown status empty")
	}
}

func TestExtractData(t *testing.T) {
	code := H39_32()
	f := func(v uint64) bool {
		v &= 0xFFFFFFFF
		return code.ExtractData(code.Encode(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMasksHighBits(t *testing.T) {
	code := H22_16()
	a := code.Encode(0x12345) // 17 bits; bit 16 must be ignored
	b := code.Encode(0x2345)  // low 16 bits only
	if a != b {
		t.Errorf("Encode did not mask payload: %#x vs %#x", a, b)
	}
}

func TestParityFanIn(t *testing.T) {
	code := H39_32()
	hamming, overall := code.ParityFanIn()
	if len(hamming) != 6 {
		t.Fatalf("H(39,32) has %d Hamming parities, want 6", len(hamming))
	}
	if overall != 38 {
		t.Errorf("overall fan-in %d, want 38", overall)
	}
	total := 0
	for i, f := range hamming {
		if f <= 0 {
			t.Errorf("parity %d covers %d data bits", i, f)
		}
		total += f
	}
	// Every data position p contributes popcount(p) parity memberships;
	// the sum over parities must equal the sum of popcounts of the 32
	// data positions.
	wantTotal := 0
	for _, p := range code.DataPositions() {
		for x := p; x != 0; x &= x - 1 {
			wantTotal++
		}
	}
	if total != wantTotal {
		t.Errorf("fan-in total %d, want %d", total, wantTotal)
	}
}

func TestDataPositionsAreNonPowersOfTwo(t *testing.T) {
	for _, code := range []*Code{H39_32(), H22_16(), MustNew(8)} {
		seen := map[int]bool{}
		for _, p := range code.DataPositions() {
			if p <= 0 || p&(p-1) == 0 {
				t.Errorf("%s: data position %d is a parity slot", code.Name(), p)
			}
			if seen[p] {
				t.Errorf("%s: duplicate data position %d", code.Name(), p)
			}
			seen[p] = true
		}
	}
}

func TestTripleErrorsNeverReportOK(t *testing.T) {
	// SECDED cannot reliably classify triple errors (some alias to
	// "Corrected" at the wrong position), but it must never report a
	// corrupted codeword as pristine OK.
	rng := rand.New(rand.NewSource(4))
	code := H39_32()
	n := code.CodewordBits()
	for trial := 0; trial < 3000; trial++ {
		v := rng.Uint64() & 0xFFFFFFFF
		cw := code.Encode(v)
		i, j, k := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		if i == j || j == k || i == k {
			continue
		}
		bad := cw ^ (uint64(1) << uint(i)) ^ (uint64(1) << uint(j)) ^ (uint64(1) << uint(k))
		if _, st, _ := code.Decode(bad); st == OK {
			t.Fatalf("triple error (%d,%d,%d) decoded as OK", i, j, k)
		}
	}
}

func BenchmarkEncode39_32(b *testing.B) {
	code := H39_32()
	for i := 0; i < b.N; i++ {
		_ = code.Encode(uint64(i))
	}
}

func BenchmarkDecode39_32(b *testing.B) {
	code := H39_32()
	cw := code.Encode(0xDEADBEEF)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = code.Decode(cw ^ uint64(1)<<uint(i%39))
	}
}

// BenchmarkEncodeBatch39_32 encodes one 4096-word page, the size of
// the recovery campaign's memory.
func BenchmarkEncodeBatch39_32(b *testing.B) {
	code := H39_32()
	rng := rand.New(rand.NewSource(5))
	src := make([]uint64, 4096)
	for i := range src {
		src[i] = uint64(rng.Uint32())
	}
	dst := make([]uint64, len(src))
	b.SetBytes(int64(8 * len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.EncodeBatch(dst, src)
	}
}

// BenchmarkDecodeBatch39_32 decodes one 4096-word page with a single
// error in every eighth word and a double error in every 64th.
func BenchmarkDecodeBatch39_32(b *testing.B) {
	code := H39_32()
	rng := rand.New(rand.NewSource(6))
	cw := make([]uint64, 4096)
	for i := range cw {
		cw[i] = code.Encode(uint64(rng.Uint32()))
		if i%8 == 0 {
			cw[i] ^= 1 << uint(rng.Intn(39))
		}
		if i%64 == 0 {
			cw[i] ^= 1 << uint(rng.Intn(39))
		}
	}
	dst := make([]uint64, len(cw))
	sts := make([]Status, len(cw))
	b.SetBytes(int64(8 * len(cw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.DecodeBatch(dst, cw, sts)
	}
}

// bitwiseEncode is the original one-bit-at-a-time encoder, kept as the
// oracle for the table kernels and the mask-and-popcount reference.
func bitwiseEncode(c *Code, data uint64) uint64 {
	data &= (uint64(1) << uint(c.k)) - 1
	var cw uint64
	for i, p := range c.dataPos {
		cw |= ((data >> uint(i)) & 1) << uint(p)
	}
	for i := 0; i < c.r; i++ {
		pp := 1 << uint(i)
		var par uint64
		for p := 1; p <= c.k+c.r; p++ {
			if p&(1<<uint(i)) != 0 {
				par ^= (cw >> uint(p)) & 1
			}
		}
		cw |= par << uint(pp)
	}
	var ones uint64
	for b := 0; b < 64; b++ {
		ones += (cw >> uint(b)) & 1
	}
	cw |= ones & 1
	return cw
}

// bitwiseSyndrome is the original per-position syndrome walk.
func bitwiseSyndrome(c *Code, cw uint64) int {
	syn := 0
	for p := 1; p <= c.k+c.r; p++ {
		if (cw>>uint(p))&1 != 0 {
			syn ^= p
		}
	}
	return syn
}

// TestMaskEncodeMatchesBitwise pins the table kernels' Encode and
// ExtractData, and the reference's mask-and-popcount syndrome, against
// the bit-loop originals for every supported width on random data —
// both must reproduce the classic Hamming layout exactly.
func TestMaskEncodeMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for k := 1; k <= 57; k++ {
		code, ref := MustNew(k), newRef(k)
		for trial := 0; trial < 50; trial++ {
			v := rng.Uint64()
			got := code.Encode(v)
			want := bitwiseEncode(code, v)
			if got != want {
				t.Fatalf("k=%d Encode(%#x) = %#x, want %#x", k, v, got, want)
			}
			if ref := ref.encode(v); ref != want {
				t.Fatalf("k=%d reference encode(%#x) = %#x, want %#x", k, v, ref, want)
			}
			if ext := code.ExtractData(got); ext != v&((uint64(1)<<uint(k))-1) {
				t.Fatalf("k=%d ExtractData(%#x) = %#x", k, got, ext)
			}
			// Corrupt up to 2 random bits; syndrome must match the walk.
			cw := got
			for f := 0; f < trial%3; f++ {
				cw ^= 1 << uint(rng.Intn(code.n))
			}
			if syn, want := ref.syndrome(cw), bitwiseSyndrome(code, cw); syn != want {
				t.Fatalf("k=%d syndrome of %#x = %d, want %d", k, cw, syn, want)
			}
		}
	}
}

// TestTablesMatchReference checks the table kernels against the
// mask-and-popcount reference for every width: random data words and
// every single- and double-bit error on each, through Encode,
// EncodeBatch, Decode and DecodeBatch (data, Status, repaired position
// and the batch counts), plus arbitrary words with bits above n set.
func TestTablesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for k := 1; k <= 57; k++ {
		code, ref := MustNew(k), newRef(k)
		n := code.CodewordBits()
		var data, words []uint64
		for trial := 0; trial < 6; trial++ {
			v := rng.Uint64() // bits above k must be ignored
			data = append(data, v)
			cw := ref.encode(v)
			words = append(words, cw, rng.Uint64())
			for i := 0; i < n; i++ {
				words = append(words, cw^1<<uint(i))
				for j := i + 1; j < n; j++ {
					words = append(words, cw^1<<uint(i)^1<<uint(j))
				}
			}
		}
		enc := make([]uint64, len(data))
		code.EncodeBatch(enc, data)
		for i, v := range data {
			if want := ref.encode(v); code.Encode(v) != want || enc[i] != want {
				t.Fatalf("k=%d: Encode(%#x) = %#x, EncodeBatch %#x, want %#x", k, v, code.Encode(v), enc[i], want)
			}
		}
		dst := make([]uint64, len(words))
		sts := make([]Status, len(words))
		corrected, uncorrectable := code.DecodeBatch(dst, words, sts)
		var wantCorr, wantUnc uint64
		for i, cw := range words {
			wantData, wantSt, wantPos := ref.decode(cw)
			switch wantSt {
			case Corrected:
				wantCorr++
			case DetectedUncorrectable:
				wantUnc++
			}
			gotData, gotSt, gotPos := code.Decode(cw)
			if gotData != wantData || gotSt != wantSt || gotPos != wantPos {
				t.Fatalf("k=%d: Decode(%#x) = (%#x, %v, %d), want (%#x, %v, %d)",
					k, cw, gotData, gotSt, gotPos, wantData, wantSt, wantPos)
			}
			if dst[i] != wantData || sts[i] != wantSt {
				t.Fatalf("k=%d: DecodeBatch word %d (%#x) = (%#x, %v), want (%#x, %v)",
					k, i, cw, dst[i], sts[i], wantData, wantSt)
			}
			if got := code.ExtractData(cw); got != ref.extract(cw) {
				t.Fatalf("k=%d: ExtractData(%#x) = %#x, want %#x", k, cw, got, ref.extract(cw))
			}
		}
		if corrected != wantCorr || uncorrectable != wantUnc {
			t.Fatalf("k=%d: DecodeBatch counts (%d, %d), want (%d, %d)", k, corrected, uncorrectable, wantCorr, wantUnc)
		}
	}
}
