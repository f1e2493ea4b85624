package exp

import (
	"math/rand"
	"testing"

	"faultmem/internal/dataset"
	"faultmem/internal/fault"
	"faultmem/internal/mat"
	"faultmem/internal/mem"
	"faultmem/internal/memstore"
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

// twinMemories builds two identical memories of one arm over the same
// fault map.
func twinMemories(t *testing.T, arm Protection, rows int, fm fault.Map) (scalar, batch mem.Word32) {
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
func checkTwinsAgree(t *testing.T, arm Protection, scalar, batch mem.Word32, what string) {
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

// TestBatchMatchesScalarOracle pins the bulk-transfer contract on every
// protection arm: WriteBatch/ReadBatch are bit-identical to the
// word-at-a-time oracle loop under mixed stuck-at and flip faults, with
// the same decode statistics and access accounting — including batches
// that start mid-array.
func TestBatchMatchesScalarOracle(t *testing.T) {
	const rows = 96
	fm := mixedFaultMap(rows)
	words := testWords(rows)
	for _, arm := range AllProtections() {
		scalar, batch := twinMemories(t, arm, rows, fm)
		bm, ok := batch.(mem.BatchMemory)
		if !ok {
			t.Fatalf("%v: memory does not implement mem.BatchMemory", arm)
		}

		for i, w := range words {
			scalar.Write(i, w)
		}
		bm.WriteBatch(0, words)
		got := make([]uint32, rows)
		bm.ReadBatch(0, got)
		for i := range got {
			if want := scalar.Read(i); got[i] != want {
				t.Fatalf("%v: word %d: scalar %#08x vs batch %#08x", arm, i, want, got[i])
			}
		}
		checkTwinsAgree(t, arm, scalar, batch, "full-range batch")

		// A batch that starts mid-array must hit the same rows' fault
		// masks as the oracle loop at the same addresses.
		const off, n = 17, 41
		for i := 0; i < n; i++ {
			scalar.Write(off+i, words[i])
		}
		bm.WriteBatch(off, words[:n])
		bm.ReadBatch(off, got[:n])
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
// scalar write of the source data would, on every arm that supports
// imaging.
func TestImageWriteMatchesScalarOracle(t *testing.T) {
	const rows = 96
	fm := mixedFaultMap(rows)
	words := testWords(rows)
	for _, arm := range AllProtections() {
		scalar, batch := twinMemories(t, arm, rows, fm)
		iw, ok := batch.(mem.ImageWriter)
		if !ok {
			t.Fatalf("%v: memory does not implement mem.ImageWriter", arm)
		}
		key := iw.ImageKey()
		if key == "" {
			t.Fatalf("%v: empty image key", arm)
		}
		if other := scalar.(mem.ImageWriter).ImageKey(); other != key {
			t.Fatalf("%v: twins report different image keys %q vs %q", arm, key, other)
		}

		img := make([]uint64, rows)
		iw.EncodeImage(img, words)
		iw.WriteImage(0, img)
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
// every arm. This is the accounting the recovery campaign's counter
// tables are reconciled against.
func TestWarmImageStatsMatchScalarOracle(t *testing.T) {
	const rows = 96
	fm := mixedFaultMap(rows)
	words := testWords(rows)
	for _, arm := range AllProtections() {
		scalar, batch := twinMemories(t, arm, rows, fm)
		iw, ok := batch.(mem.ImageWriter)
		if !ok {
			t.Fatalf("%v: memory does not implement mem.ImageWriter", arm)
		}
		bm := batch.(mem.BatchMemory)
		img := make([]uint64, rows)
		iw.EncodeImage(img, words)
		got := make([]uint32, rows)
		for round := 0; round < 3; round++ {
			iw.WriteImage(0, img)
			bm.ReadBatch(0, got)
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
	batch.WriteBatch(0, words)
	got := make([]uint32, rows)
	batch.ReadBatch(0, got)
	for i := range got {
		if want := scalar.Read(i); got[i] != want {
			t.Fatalf("transient word %d: scalar %#08x vs batch %#08x — RNG draw order diverged", i, want, got[i])
		}
	}
}

// TestTransientSourceMatchesRand pins the soft-error block path on
// every protection arm: an array handed a *stats.Source returns the
// same words as one handed a stdlib rand.New(rand.NewSource(seed)),
// which draws per cell, on scalar, batch and checked reads. A third
// memory without soft errors shows the flips happened.
func TestTransientSourceMatchesRand(t *testing.T) {
	const rows, seed = 96, 23
	fm := mixedFaultMap(rows)
	words := testWords(rows)
	for _, arm := range AllProtections() {
		srcs := []rand.Source{stats.NewSource(seed), rand.New(rand.NewSource(seed)), nil}
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
					m.(mem.BatchMemory).ReadBatch(0, got[i])
				case 3:
					var due mem.DUESet
					due.Reset(rows)
					m.(mem.Detector).ReadBatchChecked(0, got[i], &due, 0)
				}
			}
			hit := 0
			for r := range words {
				if got[0][r] != got[1][r] {
					t.Fatalf("%v round %d word %d: stats.Source read %#08x, rand.Rand read %#08x", arm, round, r, got[0][r], got[1][r])
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

// TestRoundTripCachedMatchesUncachedPerArm pins the three-tier dispatch
// end to end: the cached round trip (image or batch path, depending on
// the arm) must be float-bit identical to the word-at-a-time
// RoundTripDatasetInto on every protection arm, across page boundaries.
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
		var wsScalar, wsCached memstore.Workspace
		xs, ys := codec.RoundTripDatasetInto(&wsScalar, m, x, y)
		codec.EncodeDatasetInto(&wsCached, x, y)
		xc, yc := codec.RoundTripCachedInto(&wsCached, m)

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
			codec.RoundTripCachedInto(&ws, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				codec.RoundTripCachedInto(&ws, m)
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
		codec.RoundTripCachedInto(&ws, m) // warm buffers + image cache
		if allocs := testing.AllocsPerRun(10, func() {
			codec.RoundTripCachedInto(&ws, m)
		}); allocs != 0 {
			t.Errorf("%v: warm cached round trip allocates %v times, want 0", arm, allocs)
		}
	}
}
