// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, regenerating the corresponding rows, plus
// microbenchmarks of the core datapaths. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches print their exhibit once (via b.Logf on the first
// iteration at -v, and always report headline metrics via
// b.ReportMetric); cmd/faultmem prints the full tables.
package faultmem_test

import (
	"context"
	"io"
	"strconv"
	"testing"

	"faultmem"
	"faultmem/internal/exp"
	"faultmem/internal/mc"
	"faultmem/internal/workload"
	"faultmem/internal/yield"
)

// BenchmarkFig2CellFailure regenerates the Pcell-vs-VDD sweep of Fig. 2,
// including the spherical importance-sampling estimate at each point.
func BenchmarkFig2CellFailure(b *testing.B) {
	p := exp.DefaultFig2Params()
	p.ISDirections = 8000
	var rows []exp.Fig2Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = exp.Fig2(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].PcellAnalytic, "Pcell@0.60V")
	b.ReportMetric(rows[0].PcellAnalytic, "Pcell@1.00V")
	if err := exp.Fig2Table(rows).Render(io.Discard); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig4ErrorMagnitude regenerates the error-magnitude profile of
// Fig. 4 (all 32 fault positions x 5 segment configurations).
func BenchmarkFig4ErrorMagnitude(b *testing.B) {
	var rows []exp.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = exp.Fig4()
	}
	b.ReportMetric(float64(rows[31].NoCorrection), "log2err-msb-none")
	b.ReportMetric(float64(rows[31].Shuffled[4]), "log2err-msb-nfm5")
}

// BenchmarkFig5MSECDF regenerates the MSE-CDF comparison of Fig. 5 for
// all seven arms (16 KB memory, Pcell = 5e-6) and reports the headline
// MSE-reduction factor of nFM=1 over no protection at 90% yield.
//
// Since the internal/mc engine rewrite this is one parallel
// common-random-numbers pass over all arms with an allocation-free
// per-sample loop (RowSampler + Scheme.RowMSE): ~25x faster than the
// seed implementation at the same budget on a single core, with the
// parallel speedup on top of that.
func BenchmarkFig5MSECDF(b *testing.B) {
	p := exp.DefaultFig5Params()
	p.CDF.Trun = 2e4 // bench-scale budget; faultmem fig5 defaults to DefaultCDFParams().Trun = 2e5
	var res exp.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = exp.Fig5(mc.Env{}, p); err != nil {
			b.Fatal(err)
		}
	}
	var none, s1 yield.CDFResult
	for i, a := range res.Arms {
		switch a {
		case exp.ProtNone:
			none = res.CDFs[i]
		case exp.ProtShuffle1:
			s1 = res.CDFs[i]
		}
	}
	b.ReportMetric(yield.ReductionAtYield(s1, none, 0.9), "mse-reduction-x")
	b.ReportMetric(s1.YieldAtMSE(1e6), "nfm1-yield@1e6")
}

// BenchmarkFig6Overhead regenerates the hardware overhead comparison of
// Fig. 6 and reports the nFM=1 relative overheads (the paper's best
// case: 83% power, 77% delay, 89% area savings).
func BenchmarkFig6Overhead(b *testing.B) {
	var res exp.Fig6Result
	for i := 0; i < b.N; i++ {
		res = exp.Fig6(exp.DefaultFig6Params())
	}
	b.ReportMetric(res.Relative[0].Power, "nfm1-rel-power")
	b.ReportMetric(res.Relative[0].Delay, "nfm1-rel-delay")
	b.ReportMetric(res.Relative[0].Area, "nfm1-rel-area")
}

// benchFig7 runs one Fig. 7 benchmark through the experiment registry
// at bench-scale trial counts and reports the mean normalized quality
// of the unprotected and nFM=2 arms, read off the summary table.
func benchFig7(b *testing.B, app workload.ID) {
	p := exp.DefaultFig7Params(app)
	p.Trials = 4 // bench-scale; cmd/faultmem fig7 uses 60+
	r := &exp.Runner{Params: []exp.Fig7Params{p}}
	var res *exp.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = exp.Run(context.Background(), "fig7", r); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Tables[1].Rows { // scheme, mean quality, ...
		var unit string
		switch row[0] {
		case exp.ProtNone.String():
			unit = "quality-none"
		case exp.ProtShuffle2.String():
			unit = "quality-nfm2"
		default:
			continue
		}
		mean, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean, unit)
	}
}

// BenchmarkFig7Elasticnet regenerates Fig. 7a (wine regression, R²).
func BenchmarkFig7Elasticnet(b *testing.B) { benchFig7(b, workload.ElasticNet) }

// BenchmarkFig7PCA regenerates Fig. 7b (Madelon, explained variance).
func BenchmarkFig7PCA(b *testing.B) { benchFig7(b, workload.PCA) }

// BenchmarkFig7KNN regenerates Fig. 7c (activity recognition, score).
func BenchmarkFig7KNN(b *testing.B) { benchFig7(b, workload.KNN) }

// BenchmarkTable1Applications regenerates the Table 1 summary, training
// all three benchmarks on clean data.
func BenchmarkTable1Applications(b *testing.B) {
	var rows []exp.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.Table1(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CleanMetric, "elasticnet-r2")
	b.ReportMetric(rows[2].CleanMetric, "knn-score")
}

// --- microbenchmarks of the datapaths under the figures ---

// BenchmarkShuffledMemoryAccess measures the functional write+read cost
// of the bit-shuffling datapath on a 16 KB array with a realistic fault
// load.
func BenchmarkShuffledMemoryAccess(b *testing.B) {
	faults := faultmem.GenerateFaultCount(1, faultmem.Rows16KB, 131)
	m, err := faultmem.NewShuffledMemory(5, faultmem.Rows16KB, faults)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i & (faultmem.Rows16KB - 1)
		m.Write(a, uint32(i))
		_ = m.Read(a)
	}
}

// BenchmarkECCMemoryAccess measures the same for the H(39,32) arm
// (encode on write, syndrome decode on read).
func BenchmarkECCMemoryAccess(b *testing.B) {
	faults := faultmem.GenerateFaultCount(1, faultmem.Rows16KB, 131)
	m, err := faultmem.NewECCMemory(faultmem.Rows16KB, faults)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i & (faultmem.Rows16KB - 1)
		m.Write(a, uint32(i))
		_ = m.Read(a)
	}
}

// BenchmarkBISTMarchCMinus16KB measures a full March C- scan of a 16 KB
// array (the power-on self-test cost).
func BenchmarkBISTMarchCMinus16KB(b *testing.B) {
	arr := faultmem.NewBitArray(faultmem.Rows16KB, 32)
	if err := arr.SetFaults(faultmem.GenerateFaultCount(1, faultmem.Rows16KB, 131)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = faultmem.RunBIST(faultmem.MarchCMinus(), arr)
	}
}

// BenchmarkMSEEq6 measures the Eq. (6) quality-function evaluation on a
// realistic fault map (the inner loop of the Fig. 5 Monte Carlo).
func BenchmarkMSEEq6(b *testing.B) {
	faults := faultmem.GenerateFaultCount(1, faultmem.Rows16KB, 131)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faultmem.MSE(faults, faultmem.Rows16KB, "nfm3"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetRoundTrip measures pushing the wine training set
// through a faulty shuffled memory (the Fig. 7 inner loop without model
// training).
func BenchmarkDatasetRoundTrip(b *testing.B) {
	ds := faultmem.WineDataset(1)
	train, _ := ds.Split(0.8, 1)
	faults := faultmem.GenerateFaultCount(1, faultmem.Rows16KB, 131)
	m, err := faultmem.NewShuffledMemory(2, faultmem.Rows16KB, faults)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = faultmem.RoundTripDataset(m, train.X, train.Y)
	}
}
