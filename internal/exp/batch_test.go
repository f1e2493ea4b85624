package exp

import (
	"fmt"
	"math/rand"
	"testing"

	"faultmem/internal/core"
	"faultmem/internal/dataset"
	"faultmem/internal/fault"
	"faultmem/internal/mat"
	"faultmem/internal/mem"
	"faultmem/internal/memstore"
	"faultmem/internal/redund"
	"faultmem/internal/sram"
	"faultmem/internal/stats"
	"faultmem/internal/workload"
)

// mixedFaultMap builds a deterministic fault map cycling through all
// three failure modes, one fault per row so the cells never collide.
func mixedFaultMap(rows int) fault.Map {
	kinds := []fault.Kind{fault.Flip, fault.StuckAt0, fault.StuckAt1}
	fm := make(fault.Map, 0, rows)
	for i := 0; i < rows; i++ {
		fm = append(fm, fault.Fault{Row: i, Col: (i * 11) % 32, Kind: kinds[i%3]})
	}
	return fm
}

// testWords fills a deterministic word pattern hitting every bit.
func testWords(n int) []uint32 {
	w := make([]uint32, n)
	x := uint32(0x9e3779b9)
	for i := range w {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		w[i] = x
	}
	return w
}

type statser interface{ Stats() mem.Stats }

type arrayer interface{ Array() *sram.Array }

// repairedArm builds the spare-line repair baseline, whose batch, image
// and checked methods are loops over its scalar datapath. The budget
// repairs mixedFaultMap with spare columns and rows both in use.
type repairedArm struct{}

func (repairedArm) String() string { return "Repaired" }

func (repairedArm) Build(rows int, fm fault.Map) (mem.Word32, error) {
	m, ok, err := redund.NewRepaired(rows, fm, redund.Budget{SpareRows: 8, SpareCols: 30})
	if err == nil && !ok {
		err = fmt.Errorf("fault map exceeds the repair budget")
	}
	return m, err
}

// oracleArms returns every protection arm plus the repaired baseline:
// every memory the batch-versus-scalar oracle tests cover.
func oracleArms() []workload.Arm {
	var arms []workload.Arm
	for _, p := range AllProtections() {
		arms = append(arms, p)
	}
	return append(arms, repairedArm{})
}

// writeImage stores words at addr through the bulk write path:
// EncodeImage, then WriteImage.
func writeImage(m mem.Word32, addr int, words []uint32) {
	img := make([]uint64, len(words))
	m.EncodeImage(img, words)
	m.WriteImage(addr, img)
}

// twinMemories builds two identical memories of one arm over the same
// fault map.
func twinMemories(t *testing.T, arm workload.Arm, rows int, fm fault.Map) (scalar, batch mem.Word32) {
	t.Helper()
	a, err := arm.Build(rows, fm)
	if err != nil {
		t.Fatalf("%v: build: %v", arm, err)
	}
	b, err := arm.Build(rows, fm)
	if err != nil {
		t.Fatalf("%v: build: %v", arm, err)
	}
	return a, b
}

// checkTwinsAgree compares the observable state the batch paths promise
// to preserve: every readable word, decode statistics, and the raw
// array access counters.
func checkTwinsAgree(t *testing.T, arm workload.Arm, scalar, batch mem.Word32, what string) {
	t.Helper()
	for addr := 0; addr < scalar.Words(); addr++ {
		if s, b := scalar.Read(addr), batch.Read(addr); s != b {
			t.Fatalf("%v: %s: word %d reads %#08x scalar vs %#08x batch", arm, what, addr, s, b)
		}
	}
	ss, sok := scalar.(statser)
	bs, bok := batch.(statser)
	if sok != bok {
		t.Fatalf("%v: twins disagree on Stats() support", arm)
	}
	if sok && ss.Stats() != bs.Stats() {
		t.Fatalf("%v: %s: decode stats %+v scalar vs %+v batch", arm, what, ss.Stats(), bs.Stats())
	}
	sa, sok := scalar.(arrayer)
	ba, bok := batch.(arrayer)
	if sok != bok {
		t.Fatalf("%v: twins disagree on Array() support", arm)
	}
	if sok {
		sr, sw := sa.Array().AccessCounts()
		br, bw := ba.Array().AccessCounts()
		if sr != br || sw != bw {
			t.Fatalf("%v: %s: access counts (r=%d,w=%d) scalar vs (r=%d,w=%d) batch",
				arm, what, sr, sw, br, bw)
		}
	}
}

// checkRotationCoverage fails unless a bit-shuffling memory's rows
// [addr, addr+n) hold both FM-LUT entries that are 0, which take no
// rotation on the bulk paths, and non-zero ones, which do, so an
// oracle test over them covers both. Other arms pass.
func checkRotationCoverage(t *testing.T, arm workload.Arm, m mem.Word32, addr, n int) {
	t.Helper()
	s, ok := m.(*core.Shuffled)
	if !ok {
		return
	}
	zero := 0
	for r := addr; r < addr+n; r++ {
		if s.LUT().X(r) == 0 {
			zero++
		}
	}
	if zero == 0 || zero == n {
		t.Fatalf("%v: rows [%d,%d) hold %d zero FM-LUT entries of %d, want both kinds", arm, addr, addr+n, zero, n)
	}
}

// TestBatchMatchesScalarOracle pins the bulk-transfer contract on every
// protection arm and the repaired baseline: the image write and
// ReadBatch are bit-identical to the word-at-a-time oracle loop under
// mixed stuck-at and flip faults, with the same decode statistics,
// access accounting and DUE flags — including batches that start
// mid-array.
func TestBatchMatchesScalarOracle(t *testing.T) {
	const rows = 96
	fm := mixedFaultMap(rows)
	words := testWords(rows)
	for _, arm := range oracleArms() {
		scalar, batch := twinMemories(t, arm, rows, fm)
		checkRotationCoverage(t, arm, batch, 0, rows)

		for i, w := range words {
			scalar.Write(i, w)
		}
		writeImage(batch, 0, words)
		got := make([]uint32, rows)
		var due mem.DUESet
		due.Reset(rows)
		batch.ReadBatch(0, got, &due, 0)
		for i := range got {
			want, wantDUE := scalar.ReadChecked(i)
			if got[i] != want {
				t.Fatalf("%v: word %d: scalar %#08x vs batch %#08x", arm, i, want, got[i])
			}
			if due.Get(i) != wantDUE {
				t.Fatalf("%v: word %d: scalar due %v vs batch due %v", arm, i, wantDUE, due.Get(i))
			}
		}
		checkTwinsAgree(t, arm, scalar, batch, "full-range batch")

		// A batch that starts mid-array must hit the same rows' fault
		// masks as the oracle loop at the same addresses.
		const off, n = 17, 41
		checkRotationCoverage(t, arm, batch, off, n)
		for i := 0; i < n; i++ {
			scalar.Write(off+i, words[i])
		}
		writeImage(batch, off, words[:n])
		batch.ReadBatch(off, got[:n], nil, 0)
		for i := 0; i < n; i++ {
			if want := scalar.Read(off + i); got[i] != want {
				t.Fatalf("%v: offset word %d: scalar %#08x vs batch %#08x", arm, off+i, want, got[i])
			}
		}
		checkTwinsAgree(t, arm, scalar, batch, "offset batch")
	}
}

// TestImageWriteMatchesScalarOracle pins the codeword-image fast path:
// EncodeImage+WriteImage must leave a memory in exactly the state a
// scalar write of the source data would, on every arm and the repaired
// baseline.
func TestImageWriteMatchesScalarOracle(t *testing.T) {
	const rows = 96
	fm := mixedFaultMap(rows)
	words := testWords(rows)
	for _, arm := range oracleArms() {
		scalar, batch := twinMemories(t, arm, rows, fm)
		checkRotationCoverage(t, arm, batch, 0, rows)
		key := batch.ImageKey()
		if key == "" {
			t.Fatalf("%v: empty image key", arm)
		}
		if other := scalar.ImageKey(); other != key {
			t.Fatalf("%v: twins report different image keys %q vs %q", arm, key, other)
		}

		img := make([]uint64, rows)
		batch.EncodeImage(img, words)
		batch.WriteImage(0, img)
		for i, w := range words {
			scalar.Write(i, w)
		}
		checkTwinsAgree(t, arm, scalar, batch, "image write")
	}
}

// TestWarmImageStatsMatchScalarOracle pins the decode-statistics
// contract across the image-write fast path under sustained reuse: a
// warm loop of WriteImage + batch reads must leave exactly the Stats
// tallies (and access counters) a word-at-a-time oracle accumulates, on
// every arm and the repaired baseline. This is the accounting the
// recovery campaign's counter tables are reconciled against.
func TestWarmImageStatsMatchScalarOracle(t *testing.T) {
	const rows = 96
	fm := mixedFaultMap(rows)
	words := testWords(rows)
	for _, arm := range oracleArms() {
		scalar, batch := twinMemories(t, arm, rows, fm)
		img := make([]uint64, rows)
		batch.EncodeImage(img, words)
		got := make([]uint32, rows)
		for round := 0; round < 3; round++ {
			batch.WriteImage(0, img)
			batch.ReadBatch(0, got, nil, 0)
			for i, w := range words {
				scalar.Write(i, w)
			}
			for i := range words {
				if want := scalar.Read(i); got[i] != want {
					t.Fatalf("%v: round %d word %d: scalar %#08x vs batch %#08x", arm, round, i, want, got[i])
				}
			}
		}
		checkTwinsAgree(t, arm, scalar, batch, "warm image rounds")
	}
}

// TestBatchTransientMatchesScalar pins the transient-mode fallback:
// with soft errors enabled, ReadBatch must draw the per-read RNG in
// exactly the scalar order, so same-seeded twins return identical
// corrupted words.
func TestBatchTransientMatchesScalar(t *testing.T) {
	const rows = 128
	fm := mixedFaultMap(rows)
	words := testWords(rows)
	scalarM, batchM := twinMemories(t, ProtNone, rows, fm)
	scalar, batch := scalarM.(*mem.Raw), batchM.(*mem.Raw)
	scalar.Array().SetTransient(0.2, stats.NewRand(11))
	batch.Array().SetTransient(0.2, stats.NewRand(11))

	for i, w := range words {
		scalar.Write(i, w)
	}
	writeImage(batch, 0, words)
	got := make([]uint32, rows)
	batch.ReadBatch(0, got, nil, 0)
	for i := range got {
		if want := scalar.Read(i); got[i] != want {
			t.Fatalf("transient word %d: scalar %#08x vs batch %#08x — RNG draw order diverged", i, want, got[i])
		}
	}
}

// TestTransientSourceMatchesRand pins the soft-error draw on every
// protection arm: an array handed a plain rand.NewSource(seed) returns
// the same words as one handed a rand.New(rand.NewSource(seed)), on
// scalar, batch and checked reads. A third memory without soft errors
// shows the flips happened.
func TestTransientSourceMatchesRand(t *testing.T) {
	const rows, seed = 96, 23
	fm := mixedFaultMap(rows)
	words := testWords(rows)
	for _, arm := range AllProtections() {
		srcs := []rand.Source{rand.NewSource(seed), rand.New(rand.NewSource(seed)), nil}
		mems := make([]mem.Word32, len(srcs))
		got := make([][]uint32, len(srcs))
		for i, src := range srcs {
			m, err := arm.Build(rows, fm)
			if err != nil {
				t.Fatalf("%v: build: %v", arm, err)
			}
			if src != nil {
				m.(arrayer).Array().SetTransient(0.05, src)
			}
			mems[i], got[i] = m, make([]uint32, rows)
		}
		for round := 0; round < 4; round++ {
			for i, m := range mems {
				for r, w := range words {
					m.Write(r, w^uint32(round))
				}
				switch round {
				case 0, 1:
					for r := range got[i] {
						got[i][r] = m.Read(r)
					}
				case 2:
					m.ReadBatch(0, got[i], nil, 0)
				case 3:
					var due mem.DUESet
					due.Reset(rows)
					m.ReadBatch(0, got[i], &due, 0)
				}
			}
			hit := 0
			for r := range words {
				if got[0][r] != got[1][r] {
					t.Fatalf("%v round %d word %d: rand.Source read %#08x, rand.Rand read %#08x", arm, round, r, got[0][r], got[1][r])
				}
				if got[0][r] != got[2][r] {
					hit++
				}
			}
			if hit == 0 {
				t.Fatalf("%v round %d: no soft error reached a word", arm, round)
			}
		}
	}
}

// batchTestDataset builds a small deterministic dataset whose word
// count exceeds the memory size, so the round trip pages.
func batchTestDataset() (*mat.Dense, []float64) {
	const rows, cols = 40, 8
	rng := stats.NewRand(5)
	x := mat.NewDense(rows, cols)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x.Set(i, j, rng.NormFloat64()*3)
		}
		y[i] = rng.NormFloat64()
	}
	return x, y
}

// scalarTripDataset is the word-at-a-time oracle of the dataset round
// trip: it pages the flat layout (row-major features, then labels)
// through m with one Write and one Read per word.
func scalarTripDataset(c memstore.Codec, m mem.Word32, x *mat.Dense, y []float64) (*mat.Dense, []float64) {
	rows, cols := x.Dims()
	flat := make([]float64, 0, rows*cols+len(y))
	for i := 0; i < rows; i++ {
		flat = append(flat, x.RawRow(i)...)
	}
	flat = append(flat, y...)
	page := m.Words()
	for start := 0; start < len(flat); start += page {
		end := min(start+page, len(flat))
		for i := start; i < end; i++ {
			m.Write(i-start, c.Encode(flat[i]))
		}
		for i := start; i < end; i++ {
			flat[i] = c.Decode(m.Read(i - start))
		}
	}
	out := mat.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		out.SetRow(i, flat[i*cols:(i+1)*cols])
	}
	return out, flat[rows*cols:]
}

// TestRoundTripCachedMatchesUncachedPerArm pins the paging core end to
// end: the cached round trip (image write, batch read) must be
// float-bit identical to the word-at-a-time oracle on every protection
// arm, across page boundaries.
func TestRoundTripCachedMatchesUncachedPerArm(t *testing.T) {
	const memRows = 64 // < dataset words, so the trip pages
	x, y := batchTestDataset()
	codec := memstore.DefaultCodec()
	fm := mixedFaultMap(memRows)
	for _, arm := range AllProtections() {
		m, err := arm.Build(memRows, fm)
		if err != nil {
			t.Fatalf("%v: build: %v", arm, err)
		}
		xs, ys := scalarTripDataset(codec, m, x, y)
		var wsCached memstore.Workspace
		codec.EncodeDatasetInto(&wsCached, x, y)
		xc, yc := codec.RoundTripCachedInto(&wsCached, m, nil)

		r, c := xs.Dims()
		if rc, cc := xc.Dims(); rc != r || cc != c {
			t.Fatalf("%v: cached shape %dx%d vs %dx%d", arm, rc, cc, r, c)
		}
		for i := 0; i < r; i++ {
			rowS, rowC := xs.RawRow(i), xc.RawRow(i)
			for j := range rowS {
				if rowS[j] != rowC[j] {
					t.Fatalf("%v: X[%d,%d] = %v scalar vs %v cached", arm, i, j, rowS[j], rowC[j])
				}
			}
		}
		for i := range ys {
			if ys[i] != yc[i] {
				t.Fatalf("%v: Y[%d] = %v scalar vs %v cached", arm, i, ys[i], yc[i])
			}
		}
	}
}

// BenchmarkFig7RoundTrip measures the warm cached dataset round trip —
// the memory half of a Fig. 7 trial — per protection arm at the
// engine's real geometry (4096-word macro, Ionosphere-sized training
// set). This is the path the codeword-image cache accelerates; CI
// records it next to the whole-trial benches.
func BenchmarkFig7RoundTrip(b *testing.B) {
	p := DefaultFig7Params(workload.ElasticNet)
	train, _ := dataset.Wine(p.Seed).Split(0.8, p.Seed+1)
	codec := memstore.DefaultCodec()
	rng := stats.NewRand(42)
	fm := fault.GeneratePcell(rng, p.Rows, 32, p.Pcell, fault.Flip)
	for _, arm := range AllProtections() {
		b.Run(arm.ID().String(), func(b *testing.B) {
			m, err := arm.Build(p.Rows, fm)
			if err != nil {
				b.Fatal(err)
			}
			var ws memstore.Workspace
			codec.EncodeDatasetInto(&ws, train.X, train.Y)
			codec.RoundTripCachedInto(&ws, m, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				codec.RoundTripCachedInto(&ws, m, nil)
			}
		})
	}
}

// TestRoundTripCachedWarmAllocs pins the perf contract the Fig. 7
// engine relies on: once the workspace and the per-scheme codeword
// image are warm, a cached round trip allocates nothing, on every arm.
func TestRoundTripCachedWarmAllocs(t *testing.T) {
	const memRows = 64
	x, y := batchTestDataset()
	codec := memstore.DefaultCodec()
	fm := mixedFaultMap(memRows)
	for _, arm := range AllProtections() {
		m, err := arm.Build(memRows, fm)
		if err != nil {
			t.Fatalf("%v: build: %v", arm, err)
		}
		var ws memstore.Workspace
		codec.EncodeDatasetInto(&ws, x, y)
		codec.RoundTripCachedInto(&ws, m, nil) // warm buffers + image cache
		if allocs := testing.AllocsPerRun(10, func() {
			codec.RoundTripCachedInto(&ws, m, nil)
		}); allocs != 0 {
			t.Errorf("%v: warm cached round trip allocates %v times, want 0", arm, allocs)
		}
	}
}
