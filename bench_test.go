// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment and
// reports the paper's metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports (at the harness scale;
// see EXPERIMENTS.md for the paper-vs-measured record, and
// cmd/casa-experiments for the full-scale run).
package casa_test

import (
	"math/rand"
	"sync"
	"testing"

	"casa"
	"casa/internal/experiments"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite builds the shared workload/engine suite once.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(experiments.SmallScale())
	})
	return suite
}

// BenchmarkFig5HitPivots regenerates Fig 5: hit pivots/read/partition for
// k in {12, 14, 16, 19}.
func BenchmarkFig5HitPivots(b *testing.B) {
	s := benchSuite(b)
	var res *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.HitPivots, "hitPivots/read@k"+itoa(row.K))
	}
	b.ReportMetric(res.Ratio12to19, "k12/k19")
}

// BenchmarkFig12SeedingThroughput regenerates Fig 12: seeding throughput
// of B-12T, B-32T, CASA, ERT and GenAx on both workloads.
func BenchmarkFig12SeedingThroughput(b *testing.B) {
	s := benchSuite(b)
	for _, w := range s.Workloads {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var res *experiments.ThroughputResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = s.Fig12(w)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, e := range res.Engines {
				b.ReportMetric(e.Throughput, e.Name+"_reads/s")
			}
		})
	}
}

// BenchmarkFig13Power regenerates Fig 13: power and energy efficiency of
// the three accelerators.
func BenchmarkFig13Power(b *testing.B) {
	s := benchSuite(b)
	var res *experiments.ThroughputResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Fig12(s.Workloads[0])
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"CASA", "ERT", "GenAx"} {
		m := res.Metric(name)
		b.ReportMetric(m.PowerW, name+"_W")
		b.ReportMetric(m.ReadsPerMJ, name+"_reads/mJ")
	}
}

// BenchmarkFig14EndToEnd regenerates Fig 14: normalized end-to-end
// running time per system.
func BenchmarkFig14EndToEnd(b *testing.B) {
	s := benchSuite(b)
	var res *experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Fig14(s.Workloads[0])
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, bd := range res.Breakdowns {
		b.ReportMetric(bd.Total(), bd.System+"_norm")
	}
}

// BenchmarkFig15PivotFilter regenerates Fig 15: average pivots triggering
// SMEM computation under naive / table / table+analysis.
func BenchmarkFig15PivotFilter(b *testing.B) {
	s := benchSuite(b)
	var res *experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Fig15()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Naive, "naive_pivots/read")
	b.ReportMetric(res.Table, "table_pivots/read")
	b.ReportMetric(res.TableAnalysis, "table+analysis_pivots/read")
	b.ReportMetric(res.AnalysisFilterRate*100, "filter_%")
}

// BenchmarkFig16Inexact regenerates Fig 16: inexact-matching throughput
// normalized to GenAx.
func BenchmarkFig16Inexact(b *testing.B) {
	s := benchSuite(b)
	var res *experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Fig16()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CASA, "CASA_vs_GenAx")
	b.ReportMetric(res.ERT, "ERT_vs_GenAx")
	b.ReportMetric(res.CASAOverERT, "CASA_vs_ERT")
}

// BenchmarkTable4Breakdown regenerates Table 4: CASA's power and area
// breakdown at the paper's full geometry.
func BenchmarkTable4Breakdown(b *testing.B) {
	s := benchSuite(b)
	var res *experiments.Table4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalArea, "area_mm2")
	b.ReportMetric(res.Report.PowerW(), "power_W")
	b.ReportMetric(res.AreaVsGenAx*100, "area_vs_genax_%")
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for the design choices DESIGN.md calls out.

// benchWorkload builds one small CASA workload for the ablations.
func benchWorkload() (casa.Sequence, []casa.Sequence, casa.Config) {
	ref := casa.GenerateReference(casa.DefaultGenome(128<<10, 3))
	reads := casa.Sequences(casa.Simulate(ref, casa.DefaultProfile(100, 5)))
	cfg := casa.DefaultConfig()
	cfg.PartitionBases = 32 << 10
	return ref, reads, cfg
}

// runCASA seeds the batch and reports modelled throughput and energy.
func runCASA(b *testing.B, ref casa.Sequence, reads []casa.Sequence, cfg casa.Config) {
	b.Helper()
	acc, err := casa.New(ref, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *casa.Result
	for i := 0; i < b.N; i++ {
		res = acc.SeedReads(reads)
	}
	b.ReportMetric(res.Throughput(), "model_reads/s")
	b.ReportMetric(res.ReadsPerMJ(), "model_reads/mJ")
}

// BenchmarkAblationFullCASA is the reference point for the ablations.
func BenchmarkAblationFullCASA(b *testing.B) {
	ref, reads, cfg := benchWorkload()
	runCASA(b, ref, reads, cfg)
}

// BenchmarkAblationNoFilter disables the pre-seeding filter table.
func BenchmarkAblationNoFilter(b *testing.B) {
	ref, reads, cfg := benchWorkload()
	cfg.UseFilterTable = false
	cfg.UseAnalysis = false
	runCASA(b, ref, reads, cfg)
}

// BenchmarkAblationNoAnalysis keeps the table but drops the CRkM and
// alignment analyses.
func BenchmarkAblationNoAnalysis(b *testing.B) {
	ref, reads, cfg := benchWorkload()
	cfg.UseAnalysis = false
	runCASA(b, ref, reads, cfg)
}

// BenchmarkAblationNoExactPrepass disables §4.3's exact-match path (the
// paper credits it with 2.77x).
func BenchmarkAblationNoExactPrepass(b *testing.B) {
	ref, reads, cfg := benchWorkload()
	cfg.ExactMatchPrepass = false
	runCASA(b, ref, reads, cfg)
}

// BenchmarkAblationNoGating disables both CAM power-gating levels (the
// paper's gated design uses 4.2% of the naive CAM power).
func BenchmarkAblationNoGating(b *testing.B) {
	ref, reads, cfg := benchWorkload()
	cfg.GroupGating = false
	cfg.EntryGating = false
	runCASA(b, ref, reads, cfg)
}

// BenchmarkAblationKmerSize sweeps the seed size (Fig 5's driver).
func BenchmarkAblationKmerSize(b *testing.B) {
	for _, k := range []int{12, 14, 16, 19} {
		k := k
		b.Run("k="+itoa(k), func(b *testing.B) {
			ref, reads, cfg := benchWorkload()
			cfg.K = k
			cfg.M = k / 2
			cfg.MinSMEM = 19
			runCASA(b, ref, reads, cfg)
		})
	}
}

// BenchmarkAblationGroups sweeps the CAM group count.
func BenchmarkAblationGroups(b *testing.B) {
	for _, g := range []int{1, 5, 20} {
		g := g
		b.Run("groups="+itoa(g), func(b *testing.B) {
			ref, reads, cfg := benchWorkload()
			cfg.Groups = g
			runCASA(b, ref, reads, cfg)
		})
	}
}

// BenchmarkAblationStride sweeps the CAM entry width (bases per entry).
func BenchmarkAblationStride(b *testing.B) {
	for _, s := range []int{20, 40, 64} {
		s := s
		b.Run("stride="+itoa(s), func(b *testing.B) {
			ref, reads, cfg := benchWorkload()
			cfg.Stride = s
			runCASA(b, ref, reads, cfg)
		})
	}
}

// BenchmarkChaining measures the collinear chaining DP on a repeat-heavy
// anchor set.
func BenchmarkChaining(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var anchors []casa.Anchor
	for i := 0; i < 1000; i++ {
		anchors = append(anchors, casa.Anchor{
			Q: int32(rng.Intn(5000)), R: int32(rng.Intn(1 << 22)), Len: int32(15 + rng.Intn(40)),
		})
	}
	opt := casa.DefaultChainOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := casa.BestChain(anchors, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMateRescue measures the banded-fit mate rescue path.
func BenchmarkMateRescue(b *testing.B) {
	ref := casa.GenerateReference(casa.DefaultGenome(64<<10, 7))
	pairs := casa.SimulatePairs(ref, casa.DefaultPairProfile(1, 11))
	p := pairs[0]
	partner := casa.Mate{Mapped: true, Pos: p.R1.Origin, RefLen: len(p.R1.Seq)}
	opt := casa.DefaultPairingOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := casa.RescueMate(ref, p.R2.Seq, partner, opt); !ok {
			b.Fatal("rescue failed")
		}
	}
}

// Batch-runner benchmarks: the same seeding work at several worker-pool
// sizes. The modelled Result is bit-identical at every width (asserted by
// internal/batch's determinism tests); what scales is host wall-clock,
// so compare the ns/op of workers=1 against workers=N.
var (
	batchOnce  sync.Once
	batchRef   casa.Sequence
	batchReads []casa.Sequence
	batchAcc   *casa.Accelerator
)

func batchFixture(b *testing.B) {
	b.Helper()
	batchOnce.Do(func() {
		batchRef = casa.GenerateReference(casa.DefaultGenome(1<<17, 21))
		batchReads = casa.Sequences(casa.Simulate(batchRef, casa.DefaultProfile(1000, 22)))
		cfg := casa.DefaultConfig()
		cfg.PartitionBases = 1 << 15
		acc, err := casa.New(batchRef, cfg)
		if err != nil {
			panic(err)
		}
		batchAcc = acc
	})
}

// BenchmarkBatchCASA seeds one read batch through the CASA accelerator at
// increasing worker counts.
func BenchmarkBatchCASA(b *testing.B) {
	batchFixture(b)
	eng := casa.CASAEngine(batchAcc)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("workers="+itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			opts := casa.BatchOptions{Workers: w}
			var res *casa.Result
			for i := 0; i < b.N; i++ {
				res = casa.RunEngine(eng, batchReads, opts).(*casa.Result)
			}
			b.ReportMetric(float64(len(res.Reads))*float64(b.N)/b.Elapsed().Seconds(), "host_reads/s")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
