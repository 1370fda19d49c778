// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section (§5), plus ablation benches for the design
// choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem .
//
// The benchmarks use the small stand-in datasets so a full pass stays in
// minutes; cmd/benchexp runs the full-size experiment suite.
package pane_test

import (
	"math/rand"
	"testing"

	"pane/internal/baselines"
	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/dataset"
	"pane/internal/eval"
	"pane/internal/experiments"
	"pane/internal/graph"
	"pane/internal/mat"
	"pane/internal/sparse"
	"pane/internal/svd"
)

func benchOpts() experiments.Options {
	return experiments.Options{K: 64, Alpha: 0.5, Eps: 0.015, Threads: 4, Seed: 1}
}

func loadBench(b *testing.B, name string) *graph.Graph {
	b.Helper()
	g, _, err := dataset.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// ---------------------------------------------------------------------------
// Tables.

// BenchmarkTable2RunningExample regenerates the running-example affinity
// table (Table 2).
func BenchmarkTable2RunningExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable2()
		if len(rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable3DatasetGeneration regenerates the dataset statistics
// table (Table 3) for the small stand-ins.
func BenchmarkTable3DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(dataset.SmallOrder); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4AttrInference regenerates one Table 4 row (attribute
// inference, cora stand-in, all methods) and reports PANE's AUC.
func BenchmarkTable4AttrInference(b *testing.B) {
	var lastAUC float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable4([]string{"cora"}, benchOpts(), 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range rows[0].Scores {
			if s.Method == "PANE(single)" {
				lastAUC = s.AUC
			}
		}
	}
	b.ReportMetric(lastAUC, "PANE-AUC")
}

// BenchmarkTable5LinkPrediction regenerates one Table 5 row (link
// prediction, cora stand-in, all methods) and reports PANE's AUC.
func BenchmarkTable5LinkPrediction(b *testing.B) {
	var lastAUC float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable5([]string{"cora"}, benchOpts(), 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range rows[0].Scores {
			if s.Method == "PANE(single)" {
				lastAUC = s.AUC
			}
		}
	}
	b.ReportMetric(lastAUC, "PANE-AUC")
}

// ---------------------------------------------------------------------------
// Figures.

// BenchmarkFig2NodeClassification regenerates one Figure 2 point set
// (cora, training fraction 0.5) and reports PANE's Micro-F1.
func BenchmarkFig2NodeClassification(b *testing.B) {
	var micro float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig2([]string{"cora"}, []float64{0.5}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range rows[0].Points {
			if p.Method == "PANE(single)" {
				micro = p.MicroF1
			}
		}
	}
	b.ReportMetric(micro, "PANE-MicroF1")
}

// BenchmarkFig3RunningTime times PANE end-to-end on the citeseer stand-in
// — the per-method running-time comparison of Figure 3 (the other
// methods' times appear in their own benchmarks below).
func BenchmarkFig3RunningTime(b *testing.B) {
	g := loadBench(b, "citeseer")
	cfg := core.Config{K: 64, Alpha: 0.5, Eps: 0.015, Threads: 4, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ParallelPANE(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Baselines times each implemented competitor on the same
// graph, the rest of Figure 3's bars.
func BenchmarkFig3Baselines(b *testing.B) {
	g := loadBench(b, "citeseer")
	b.Run("NRP", func(b *testing.B) {
		cfg := baselines.DefaultNRPConfig()
		cfg.K = 64
		for i := 0; i < b.N; i++ {
			baselines.NRP(g, cfg)
		}
	})
	b.Run("CANLite", func(b *testing.B) {
		cfg := baselines.DefaultCANLiteConfig()
		cfg.K = 64
		for i := 0; i < b.N; i++ {
			baselines.CANLite(g, cfg)
		}
	})
	b.Run("BANE", func(b *testing.B) {
		cfg := baselines.DefaultBANEConfig()
		cfg.K = 64
		for i := 0; i < b.N; i++ {
			baselines.BANE(g, cfg)
		}
	})
	b.Run("LQANR", func(b *testing.B) {
		cfg := baselines.DefaultLQANRConfig()
		cfg.K = 64
		for i := 0; i < b.N; i++ {
			baselines.LQANR(g, cfg)
		}
	})
	b.Run("TADW", func(b *testing.B) {
		cfg := baselines.DefaultTADWConfig()
		cfg.K = 64
		cfg.Iters = 5
		for i := 0; i < b.N; i++ {
			baselines.TADW(g, cfg)
		}
	})
}

// BenchmarkFig4aSpeedup measures parallel PANE at several thread counts
// (Figure 4a) on the tweibo stand-in, the larger of the sweep datasets.
func BenchmarkFig4aSpeedup(b *testing.B) {
	g := loadBench(b, "tweibo")
	for _, nb := range []int{1, 8} {
		b.Run(benchName("nb", nb), func(b *testing.B) {
			cfg := core.Config{K: 64, Alpha: 0.5, Eps: 0.015, Threads: nb, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := core.ParallelPANE(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4bVaryK measures time vs space budget k (Figure 4b).
func BenchmarkFig4bVaryK(b *testing.B) {
	g := loadBench(b, "tweibo")
	for _, k := range []int{16, 128} {
		b.Run(benchName("k", k), func(b *testing.B) {
			cfg := core.Config{K: k, Alpha: 0.5, Eps: 0.015, Threads: 4, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := core.ParallelPANE(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4cVaryEps measures time vs error threshold ε (Figure 4c):
// smaller ε → more iterations → slower, linear in log(1/ε).
func BenchmarkFig4cVaryEps(b *testing.B) {
	g := loadBench(b, "tweibo")
	for _, eps := range []float64{0.25, 0.001} {
		b.Run(benchNameF("eps", eps), func(b *testing.B) {
			cfg := core.Config{K: 64, Alpha: 0.5, Eps: eps, Threads: 4, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := core.ParallelPANE(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5AttrQualityVaryK regenerates the Figure 5a series
// (attribute-inference AUC vs k, cora stand-in), reporting AUC at each k.
func BenchmarkFig5AttrQualityVaryK(b *testing.B) {
	for _, k := range []int{16, 128} {
		b.Run(benchName("k", k), func(b *testing.B) {
			var auc float64
			for i := 0; i < b.N; i++ {
				attr, _, err := experiments.RunFig56([]string{"cora"}, "k", []float64{float64(k)}, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				auc = attr[0].AUC
			}
			b.ReportMetric(auc, "AUC")
		})
	}
}

// BenchmarkFig6LinkQualityVaryAlpha regenerates the Figure 6d series
// (link-prediction AUC vs α, cora stand-in).
func BenchmarkFig6LinkQualityVaryAlpha(b *testing.B) {
	for _, alpha := range []float64{0.1, 0.9} {
		b.Run(benchNameF("alpha", alpha), func(b *testing.B) {
			var auc float64
			for i := 0; i < b.N; i++ {
				_, link, err := experiments.RunFig56([]string{"cora"}, "alpha", []float64{alpha}, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				auc = link[0].AUC
			}
			b.ReportMetric(auc, "AUC")
		})
	}
}

// BenchmarkFig7GreedyInit regenerates one Figure 7 point pair: PANE vs
// PANE-R at one CCD sweep, link prediction, reporting both AUCs.
func BenchmarkFig7GreedyInit(b *testing.B) {
	var greedy, random float64
	for i := 0; i < b.N; i++ {
		link, _, err := experiments.RunFig78([]string{"cora"}, []int{1}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range link {
			if p.Variant == "PANE" {
				greedy = p.AUC
			} else {
				random = p.AUC
			}
		}
	}
	b.ReportMetric(greedy, "greedy-AUC")
	b.ReportMetric(random, "random-AUC")
}

// BenchmarkFig8GreedyInitAttr is Figure 8's attribute-inference variant.
func BenchmarkFig8GreedyInitAttr(b *testing.B) {
	var greedy, random float64
	for i := 0; i < b.N; i++ {
		_, attr, err := experiments.RunFig78([]string{"cora"}, []int{1}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range attr {
			if p.Variant == "PANE" {
				greedy = p.AUC
			} else {
				random = p.AUC
			}
		}
	}
	b.ReportMetric(greedy, "greedy-AUC")
	b.ReportMetric(random, "random-AUC")
}

// ---------------------------------------------------------------------------
// Ablation benches (design choices called out in DESIGN.md §5).

// BenchmarkAblationAPMIvsPAPMI isolates phase 1: serial APMI vs
// attribute-partitioned PAPMI at 4 threads.
func BenchmarkAblationAPMIvsPAPMI(b *testing.B) {
	g := loadBench(b, "pubmed")
	p, pt := g.Walk()
	rr, rc := g.NormalizedAttrs()
	b.Run("APMI", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.APMI(p, pt, rr, rc, 0.5, 6)
		}
	})
	b.Run("PAPMI-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PAPMI(p, pt, rr, rc, 0.5, 6, 4)
		}
	})
}

// BenchmarkAblationCCDIncrementalResiduals quantifies what the dynamic
// residual maintenance of Equations (18)-(20) buys: one CCD sweep with
// incremental updates vs recomputing Sf and Sb from scratch once, the
// work a naive implementation would redo after every sweep (the per-entry
// naive variant is quadratically worse still).
func BenchmarkAblationCCDIncrementalResiduals(b *testing.B) {
	g := loadBench(b, "cora")
	f, bb := core.AffinityFromGraph(g, 0.5, 6, 1)
	cfg := core.Config{K: 64, Alpha: 0.5, Eps: 0.015, Seed: 1, CCDIters: 1}
	b.Run("sweep-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fi, bi := f.Clone(), bb.Clone() // SVDCCD takes ownership of its targets
			b.StartTimer()
			core.SVDCCD(fi, bi, cfg, 1)
		}
	})
	b.Run("residual-recompute", func(b *testing.B) {
		e := core.SVDCCD(f.Clone(), bb.Clone(), cfg, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The full recompute a maintenance-free CCD would need after
			// every coordinate pass.
			sf := mat.MulBT(e.Xf.Dense(), e.Y)
			sf.Sub(f)
			sb := mat.MulBT(e.Xb.Dense(), e.Y)
			sb.Sub(bb)
		}
	})
}

// BenchmarkAblationRandSVDPowerIters sweeps the subspace power-iteration
// count, the knob trading initialization quality for time.
func BenchmarkAblationRandSVDPowerIters(b *testing.B) {
	g := loadBench(b, "cora")
	f, _ := core.AffinityFromGraph(g, 0.5, 6, 1)
	for _, q := range []int{0, 1, 3, 6} {
		b.Run(benchName("q", q), func(b *testing.B) {
			var relErr float64
			for i := 0; i < b.N; i++ {
				res := svd.RandSVD(f, 32, q, rand.New(rand.NewSource(1)), 1)
				diff := res.Reconstruct()
				diff.Sub(f)
				relErr = diff.FrobeniusNorm() / f.FrobeniusNorm()
			}
			b.ReportMetric(relErr, "rel-err")
		})
	}
}

// BenchmarkQR times the thin Householder QR at the shape training spends
// its time in: one SMGreedyInit block of the bench/ fixture (n = 30,000
// nodes over 2 threads, sketch width k/2 + svd.Oversample = 72).
func BenchmarkQR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := mat.New(15000, 72)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svd.QR(a)
	}
}

// BenchmarkPSVDCCD times the factorization half of training at the bench/
// fixture's shape and configuration (n = 30,000, d = 100, K = 128,
// eps = 0.25, 2 threads) — what the benchmark reports as core.svdccd_s.
func BenchmarkPSVDCCD(b *testing.B) {
	g, err := datagen.Generate(datagen.Config{
		Name: "bench", N: 30000, AvgOutDeg: 8, D: 100, AttrsPer: 6, Communities: 50, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{K: 128, Alpha: 0.5, Eps: 0.25, Threads: 2, Seed: 1}
	f, bb := core.AffinityFromGraph(g, cfg.Alpha, cfg.Iterations(), cfg.Threads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fi, bi := f.Clone(), bb.Clone() // PSVDCCD takes ownership of its targets
		b.StartTimer()
		core.PSVDCCD(fi, bi, cfg, cfg.Threads)
	}
}

// BenchmarkAblationSpMMThreads sweeps the SpMM worker count — the phase-1
// scaling primitive underlying Figure 4a.
func BenchmarkAblationSpMMThreads(b *testing.B) {
	g := loadBench(b, "tweibo")
	p, _ := g.Walk()
	rrView, _ := g.NormalizedAttrs()
	rr := rrView.ToDense()
	for _, nb := range []int{1, 2, 4, 8} {
		b.Run(benchName("nb", nb), func(b *testing.B) {
			dst := mat.New(rr.Rows, rr.Cols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ParMulDenseInto(dst, rr, nb)
			}
		})
	}
}

// BenchmarkAblationLinkScorerGram verifies the Gram-matrix trick of
// Equation (22): precomputed YᵀY scoring vs the naive O(d·k) sum.
func BenchmarkAblationLinkScorerGram(b *testing.B) {
	g := loadBench(b, "cora")
	cfg := core.Config{K: 64, Alpha: 0.5, Eps: 0.05, Threads: 4, Seed: 1}
	e, err := core.ParallelPANE(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pairs := make([][2]int, 1000)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.N), rng.Intn(g.N)}
	}
	b.Run("gram", func(b *testing.B) {
		s := core.NewLinkScorer(e)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var acc float64
			for _, p := range pairs {
				acc += s.Directed(p[0], p[1])
			}
			_ = acc
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var acc float64
			for _, p := range pairs {
				var s float64
				for r := 0; r < g.D; r++ {
					s += mat.Dot(e.Xf.Row(p[0]), e.Y.Row(r)) * mat.Dot(e.Xb.Row(p[1]), e.Y.Row(r))
				}
				acc += s
			}
			_ = acc
		}
	})
}

// BenchmarkKernelSpMM is the raw sparse kernel microbench: P·X on the
// largest stand-in.
func BenchmarkKernelSpMM(b *testing.B) {
	g := loadBench(b, "mag")
	p, _ := g.Walk()
	x := mat.New(g.N, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	dst := mat.New(g.N, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ParMulDenseInto(dst, x, 8)
	}
	b.SetBytes(int64(g.M() * 64 * 8))
}

// BenchmarkEndToEndMAG is the headline scalability number: full parallel
// PANE on the largest stand-in (the MAG surrogate).
func BenchmarkEndToEndMAG(b *testing.B) {
	g := loadBench(b, "mag")
	cfg := core.Config{K: 64, Alpha: 0.5, Eps: 0.015, Threads: 8, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ParallelPANE(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalSplits times the evaluation substrate itself so harness
// overhead is visible next to algorithm cost.
func BenchmarkEvalSplits(b *testing.B) {
	g := loadBench(b, "cora")
	b.Run("SplitLinks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eval.SplitLinks(g, 0.3, rand.New(rand.NewSource(int64(i))))
		}
	})
	b.Run("SplitAttributes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eval.SplitAttributes(g, 0.8, rand.New(rand.NewSource(int64(i))))
		}
	})
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func benchNameF(k string, v float64) string {
	switch {
	case v >= 1:
		return benchName(k, int(v))
	default:
		// Render 0.015 as 0p015 to keep bench names flag-safe.
		s := make([]byte, 0, 8)
		frac := v
		s = append(s, '0', 'p')
		for i := 0; i < 4 && frac > 1e-9; i++ {
			frac *= 10
			d := int(frac)
			s = append(s, byte('0'+d))
			frac -= float64(d)
		}
		return k + "=" + string(s)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

var _ = sparse.Entry{} // keep the substrate import explicit in the harness
