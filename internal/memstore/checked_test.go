package memstore

import (
	"math"
	"testing"

	"faultmem/internal/fault"
	"faultmem/internal/mat"
	"faultmem/internal/mem"
	"faultmem/internal/stats"
)

// doubleFaultRows places two data-geometry flips in each listed row —
// a guaranteed SECDED DUE on every read of that row.
func doubleFaultRows(rows ...int) fault.Map {
	var fm fault.Map
	for _, r := range rows {
		fm = append(fm, fault.Fault{Row: r, Col: 3, Kind: fault.Flip})
		fm = append(fm, fault.Fault{Row: r, Col: 9, Kind: fault.Flip})
	}
	return fm
}

func checkedTestValues(n int) []float64 {
	rng := stats.NewRand(23)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 50
	}
	return vals
}

// TestCheckedPayloadMatchesCachedBitIdentical pins the oracle contract
// of the checked round trip: with no recovery mechanism armed, the
// decoded payload must be float-bit identical to the plain trip on the
// same memory — detection observes, it never perturbs. Exercised on
// a detecting arm with persistent DUEs (paged) and on a codeless arm.
func TestCheckedPayloadMatchesCachedBitIdentical(t *testing.T) {
	c := DefaultCodec()
	const memRows = 16
	vals := checkedTestValues(40) // 3 pages through 16 rows
	builders := []struct {
		name  string
		build func() (mem.Word32, error)
	}{
		{"ECC", func() (mem.Word32, error) { return mem.NewECC(memRows, doubleFaultRows(3, 7, 11), nil) }},
		{"PECC", func() (mem.Word32, error) { return mem.NewPECC(memRows, doubleFaultRows(2, 9), nil) }},
		{"Raw", func() (mem.Word32, error) { return mem.NewRaw(memRows, doubleFaultRows(5)) }},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			mCached, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			var wsCached Workspace
			c.EncodeValuesInto(&wsCached, vals)
			want := append([]float64(nil), c.RoundTripCachedValues(&wsCached, mCached, nil)...)

			mChecked, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			var wsChecked Workspace
			c.EncodeValuesInto(&wsChecked, vals)
			rec := &Recovery{} // observe only: no retries, no restore
			got := c.RoundTripCachedValues(&wsChecked, mChecked, rec)

			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("value %d: checked %g vs cached %g", i, got[i], want[i])
				}
			}
			// Every flag must point at a word whose payload differs from the
			// clean quantized value.
			for i := rec.DUE.NextSet(0); i >= 0; i = rec.DUE.NextSet(i + 1) {
				clean := c.Decode(wsChecked.words[i])
				if got[i] == clean {
					t.Fatalf("word %d flagged but payload is clean", i)
				}
			}
			if rec.Stats.Flagged != uint64(rec.DUE.Count()) {
				t.Fatalf("flagged %d but DUE holds %d", rec.Stats.Flagged, rec.DUE.Count())
			}
			if rec.Stats.Retries != 0 || rec.Stats.Recovered != 0 || rec.Stats.Restored != 0 {
				t.Fatalf("observe-only recovery acted: %+v", rec.Stats)
			}
		})
	}
}

// TestCheckedFlagsPagedDUEs pins flag placement across pages: a double
// fault at row r flags flat indices r, r+page, r+2*page... — exactly
// the words the paged round trip pushed through that row.
func TestCheckedFlagsPagedDUEs(t *testing.T) {
	c := DefaultCodec()
	const memRows = 16
	m, err := mem.NewECC(memRows, doubleFaultRows(3, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	c.EncodeValuesInto(&ws, checkedTestValues(40))
	rec := &Recovery{}
	c.RoundTripCachedValues(&ws, m, rec)
	for i := 0; i < 40; i++ {
		want := i%memRows == 3 || i%memRows == 7
		if rec.DUE.Get(i) != want {
			t.Fatalf("flat index %d: flag %v, want %v", i, rec.DUE.Get(i), want)
		}
	}
	if rec.Stats.Flagged != 6 { // rows 3 and 7 sit inside all three pages (the tail spans rows 0-7)
		t.Fatalf("flagged %d, want 6", rec.Stats.Flagged)
	}
}

// TestRetryRecoversTransientCorruption pins the bounded re-read
// mechanism: with soft errors enabled and no persistent faults, every
// DUE is transient read corruption, and retries with fresh noise draws
// recover it.
func TestRetryRecoversTransientCorruption(t *testing.T) {
	c := DefaultCodec()
	const memRows = 32
	m, err := mem.NewECC(memRows, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Array().SetTransient(0.015, stats.NewRand(29))
	var ws Workspace
	c.EncodeValuesInto(&ws, checkedTestValues(96))
	rec := &Recovery{Retries: 50}
	got := c.RoundTripCachedValues(&ws, m, rec)

	if rec.Stats.Flagged == 0 {
		t.Fatal("transient rate produced no DUEs — the test exercises nothing")
	}
	if rec.Stats.Recovered != rec.Stats.Flagged {
		t.Fatalf("recovered %d of %d flagged (retries %d)",
			rec.Stats.Recovered, rec.Stats.Flagged, rec.Stats.Retries)
	}
	if rec.DUE.Any() {
		t.Fatalf("%d flags left after full recovery", rec.DUE.Count())
	}
	if rec.Stats.Retries < rec.Stats.Recovered {
		t.Fatalf("stats inconsistent: %+v", rec.Stats)
	}
	// Recovered words carry the clean quantized value (the retry's clean
	// read is exact: no persistent faults).
	for i := range got {
		_ = i // values may differ on words that took a silent single-bit correction; recovered ones were re-read clean
	}
}

// TestSafeRestoreExactWithUnlimitedBudget pins the golden-copy restore:
// persistent DUEs are replaced by the safe-memory clean values, so the
// returned payload is exactly the fault-free round trip.
func TestSafeRestoreExactWithUnlimitedBudget(t *testing.T) {
	c := DefaultCodec()
	const memRows = 16
	m, err := mem.NewECC(memRows, doubleFaultRows(3, 7, 11), nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := checkedTestValues(40)
	var ws Workspace
	c.EncodeValuesInto(&ws, vals)
	rec := &Recovery{Retries: 2, Restore: true}
	got := c.RoundTripCachedValues(&ws, m, rec)

	for i := range got {
		if want := c.Decode(ws.words[i]); got[i] != want {
			t.Fatalf("value %d: %g, want clean %g", i, got[i], want)
		}
	}
	if rec.DUE.Any() {
		t.Fatal("flags left after unlimited restore")
	}
	// 3 faulty rows over pages 16+16+8: rows 3,7,11 twice, rows 3,7 once.
	if rec.Stats.Flagged != 8 || rec.Stats.Restored != 8 {
		t.Fatalf("stats %+v, want 8 flagged and restored", rec.Stats)
	}
	// Persistent faults defeat every retry: 2 per flagged word, none recover.
	if rec.Stats.Retries != 16 || rec.Stats.Recovered != 0 {
		t.Fatalf("stats %+v, want 16 fruitless retries", rec.Stats)
	}
}

// TestSafeRestoreBudgetExhaustion pins the per-trial budget: words past
// the cap keep their corrupted payload, count as BudgetDenied, and stay
// flagged; ResetTrial re-arms the budget for the next trial.
func TestSafeRestoreBudgetExhaustion(t *testing.T) {
	c := DefaultCodec()
	const memRows = 16
	m, err := mem.NewECC(memRows, doubleFaultRows(3, 7, 11), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	c.EncodeValuesInto(&ws, checkedTestValues(16)) // one page: 3 DUEs
	rec := &Recovery{Restore: true, Budget: 2}
	got := c.RoundTripCachedValues(&ws, m, rec)

	if rec.Stats.Restored != 2 || rec.Stats.BudgetDenied != 1 {
		t.Fatalf("stats %+v, want 2 restored / 1 denied", rec.Stats)
	}
	if rec.DUE.Count() != 1 || !rec.DUE.Get(11) {
		t.Fatalf("DUE flags %d (word 11: %v), want exactly word 11", rec.DUE.Count(), rec.DUE.Get(11))
	}
	if clean := c.Decode(ws.words[11]); got[11] == clean {
		t.Fatal("denied word came back clean")
	}
	if got[3] != c.Decode(ws.words[3]) || got[7] != c.Decode(ws.words[7]) {
		t.Fatal("restored words not clean")
	}

	// Without ResetTrial the budget stays spent.
	c.RoundTripCachedValues(&ws, m, rec)
	if rec.Stats.Restored != 2 || rec.Stats.BudgetDenied != 4 {
		t.Fatalf("stats %+v after second trip, want all 3 denied", rec.Stats)
	}

	// ResetTrial re-arms it.
	rec.ResetTrial()
	c.RoundTripCachedValues(&ws, m, rec)
	if rec.Stats.Restored != 4 || rec.Stats.BudgetDenied != 5 {
		t.Fatalf("stats %+v after ResetTrial trip", rec.Stats)
	}
}

// TestRoundTripCheckedIntoDataset pins the checked dataset trip: same
// payload as the plain dataset trip, flags in flat layout (row-major
// features then labels).
func TestRoundTripCheckedIntoDataset(t *testing.T) {
	c := DefaultCodec()
	const memRows = 16
	rows, cols := 10, 3
	x := mat.NewDense(rows, cols)
	y := make([]float64, rows)
	rng := stats.NewRand(31)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x.Set(i, j, rng.NormFloat64()*10)
		}
		y[i] = rng.NormFloat64()
	}

	mCached, err := mem.NewECC(memRows, doubleFaultRows(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wsCached Workspace
	c.EncodeDatasetInto(&wsCached, x, y)
	wantX, wantY := c.RoundTripCachedInto(&wsCached, mCached, nil)

	mChecked, err := mem.NewECC(memRows, doubleFaultRows(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wsChecked Workspace
	c.EncodeDatasetInto(&wsChecked, x, y)
	rec := &Recovery{}
	gotX, gotY := c.RoundTripCachedInto(&wsChecked, mChecked, rec)
	due := &rec.DUE

	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if math.Float64bits(gotX.At(i, j)) != math.Float64bits(wantX.At(i, j)) {
				t.Fatalf("X(%d,%d): %g vs %g", i, j, gotX.At(i, j), wantX.At(i, j))
			}
		}
		if math.Float64bits(gotY[i]) != math.Float64bits(wantY[i]) {
			t.Fatalf("Y[%d]: %g vs %g", i, gotY[i], wantY[i])
		}
	}
	// 40 flat words through 16 rows: row 5 serves flat 5, 21, 37.
	for i := 0; i < 40; i++ {
		if want := i%memRows == 5; due.Get(i) != want {
			t.Fatalf("flat %d flag %v want %v", i, due.Get(i), want)
		}
	}
}

// TestCheckedWarmAllocs pins the perf contract: after the first trip,
// checked round trips with recovery stay allocation-free.
func TestCheckedWarmAllocs(t *testing.T) {
	c := DefaultCodec()
	const memRows = 16
	m, err := mem.NewECC(memRows, doubleFaultRows(3, 11), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	c.EncodeValuesInto(&ws, checkedTestValues(40))
	rec := &Recovery{Retries: 2, Restore: true}
	c.RoundTripCachedValues(&ws, m, rec)
	if allocs := testing.AllocsPerRun(10, func() {
		rec.ResetTrial()
		c.RoundTripCachedValues(&ws, m, rec)
	}); allocs != 0 {
		t.Errorf("warm checked round trip allocates %v times, want 0", allocs)
	}
}
