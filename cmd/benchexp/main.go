// Command benchexp regenerates the tables and figures of the paper's
// evaluation section on the synthetic stand-in datasets. Each experiment
// prints the same rows/series the paper reports; EXPERIMENTS.md records
// the paper-vs-measured comparison.
//
// Usage:
//
//	benchexp -exp table2|table3|table4|table5|fig2|fig3|fig4a|fig4b|fig4c|fig5|fig6|fig7|fig8|all
//	         [-datasets cora,citeseer,...] [-k 128] [-threads 10] [-quick]
//
// Beyond the paper, `-exp topk` measures the serving path added in
// internal/index — brute-force scan vs exact index vs IVF vs the
// quantized SQ8/IVFSQ tiers, QPS, recall@k, and allocs/op on a generated
// graph, plus a shard-count scaling sweep — and writes the result to
// -json (default BENCH_topk.json). The run itself fails when IVF at full
// nprobe cannot reproduce the exact answer, when SQ8 recall@k falls
// below 0.99, or when sharded exact/sq8 diverges from single-shard. With
// -baseline, a committed report is compared against the fresh run and
// the process exits non-zero when IVF/SQ8/IVFSQ throughput or recall@k
// regressed by more than -tolerance — the CI perf gate.
//
// `-exp update` measures the dynamic-update path: the same random edge
// batches applied through the full pipeline (full affinity recompute +
// full warm-start sweeps + per-shard full index rebuilds) and the delta
// pipeline (frontier-restricted recurrence patch + restricted sweeps +
// incremental per-shard refresh), sweeping the delta size and reporting
// update-to-fresh-index latency with the incremental model time broken
// into affinity/CCD/transform phases, plus a node-attribute batch
// absorbed by the low-rank gram correction instead of a full rebuild.
// The result goes to -json (default BENCH_update.json); the run fails if
// the incrementally refreshed index does not answer bit-for-bit like a
// fresh build after the edge sweep (or within 0.999 top-10 recall after
// the attribute batch), and -baseline/-tolerance gate the model, index,
// and total speedups the same way the top-k gate does.
//
// `-exp kernel` microbenchmarks the five scan kernels (float64 dot, blocked
// GEMM, int8 dot and its row-block form, fp16 decode-and-accumulate) portable vs
// dispatched at several dims, records what each op dispatched to
// (generic/avx2/neon), times the training stages built on them at the
// benchmark fixture's shape (QR, the same-flop GEMM, one CCD node and one
// attribute half-sweep), and writes BENCH_kernel.json. With -baseline the
// gate fails when an op the baseline ran vectorized now dispatches to
// generic, when a same-machine generic/dispatched speedup ratio drops by
// more than -tolerance, or when QR seconds over GEMM seconds rises by more
// than -tolerance.
//
// `-exp replicate` measures the replication tier: WAL append throughput
// under each fsync policy (always/interval/none), and how a follower
// catches up on a -repl-backlog-update leader lead — O(Δ) record replay
// over /replicate vs fetching the leader's bundle — reporting the
// crossover backlog at which the bundle starts winning (the trade
// paneserve's -follow-lag encodes). The result goes to -json (default
// BENCH_replicate.json); the run fails when the replay path touches the
// bundle fallback or converged top-k recall drops below 0.999, and
// -baseline/-tolerance gate the sync-free append speedup and the
// crossover — both same-machine ratios.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pane/internal/dataset"
	"pane/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchexp: ")
	var (
		exp       = flag.String("exp", "all", "experiment id (table2..fig8 or all)")
		datasets  = flag.String("datasets", "", "comma-separated dataset names (default: experiment-appropriate)")
		k         = flag.Int("k", 128, "space budget")
		threads   = flag.Int("threads", 10, "worker threads (stays 10, not GOMAXPROCS: every committed BENCH_*.json was taken at 10)")
		quick     = flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
		seed      = flag.Int64("seed", 1, "random seed")
		topkN     = flag.Int("topk-n", 100000, "graph size for -exp topk")
		updateN   = flag.Int("update-n", 100000, "graph size for -exp update")
		replN     = flag.Int("repl-n", 20000, "graph size for -exp replicate")
		replBack  = flag.Int("repl-backlog", 10000, "follower catch-up backlog for -exp replicate")
		shards    = flag.Int("shards", 4, "serving shards for -exp update")
		rerank    = flag.Int("rerank", 0, "quantized survivor multiplier for -exp topk (0 = index default)")
		topkJSON  = flag.String("json", "", "output path for the -exp topk/update JSON report (default BENCH_topk.json / BENCH_update.json)")
		baseline  = flag.String("baseline", "", "committed report to gate -exp topk/update against (empty = no gate)")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional regression vs -baseline before failing")
	)
	flag.Parse()

	opt := experiments.Defaults()
	opt.K = *k
	opt.Threads = *threads
	opt.Seed = *seed

	smallSets := dataset.SmallOrder
	allSets := dataset.Order
	bigSets := []string{"googleplus", "tweibo"}
	if *quick {
		smallSets = []string{"cora", "citeseer"}
		allSets = []string{"cora", "citeseer", "facebook"}
		bigSets = []string{"facebook"}
		opt.K = 32
	}
	if *datasets != "" {
		names := strings.Split(*datasets, ",")
		smallSets, allSets, bigSets = names, names, names
	}
	// The paper's non-scalable baselines get skipped above this many
	// nodes, mirroring the "-" (did not finish) entries.
	const skipSlowAbove = 25000

	run := func(id string) {
		switch id {
		case "table2":
			experiments.PrintTable2(os.Stdout, experiments.RunTable2())
		case "table3":
			rows, err := experiments.RunTable3(allSets)
			check(err)
			experiments.PrintTable3(os.Stdout, rows)
		case "table4":
			rows, err := experiments.RunTable4(allSets, opt, skipSlowAbove)
			check(err)
			experiments.PrintMethodTable(os.Stdout, "Table 4: attribute inference", rows)
		case "table5":
			rows, err := experiments.RunTable5(allSets, opt, skipSlowAbove)
			check(err)
			experiments.PrintMethodTable(os.Stdout, "Table 5: link prediction", rows)
		case "fig2":
			fracs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
			if *quick {
				fracs = []float64{0.5}
			}
			rows, err := experiments.RunFig2(smallSets, fracs, opt)
			check(err)
			experiments.PrintFig2(os.Stdout, rows)
		case "fig3":
			rows, err := experiments.RunFig3(allSets, opt, skipSlowAbove)
			check(err)
			experiments.PrintFig3(os.Stdout, rows)
		case "fig4a":
			threads := []int{1, 2, 5, 10, 20}
			if *quick {
				threads = []int{1, 2, 4}
			}
			rows, err := experiments.RunFig4a(bigSets, threads, opt)
			check(err)
			experiments.PrintSpeedups(os.Stdout, rows)
		case "fig4b":
			ks := []int{16, 32, 64, 128, 256}
			if *quick {
				ks = []int{16, 64}
			}
			rows, err := experiments.RunFig4b(bigSets, ks, opt)
			check(err)
			experiments.PrintParamTimings(os.Stdout, "Figure 4b: time vs k", "k", rows)
		case "fig4c":
			epss := []float64{0.001, 0.005, 0.015, 0.05, 0.25}
			if *quick {
				epss = []float64{0.015, 0.25}
			}
			rows, err := experiments.RunFig4c(bigSets, epss, opt)
			check(err)
			experiments.PrintParamTimings(os.Stdout, "Figure 4c: time vs eps", "eps", rows)
		case "fig5", "fig6":
			params := []struct {
				name   string
				values []float64
			}{
				{"k", []float64{16, 32, 64, 128, 256}},
				{"nb", []float64{1, 2, 5, 10, 20}},
				{"eps", []float64{0.001, 0.005, 0.015, 0.05, 0.25}},
				{"alpha", []float64{0.1, 0.3, 0.5, 0.7, 0.9}},
			}
			if *quick {
				params = params[:1]
				params[0].values = []float64{16, 64}
			}
			for _, p := range params {
				attr, link, err := experiments.RunFig56(smallSets, p.name, p.values, opt)
				check(err)
				if id == "fig5" {
					experiments.PrintQuality(os.Stdout, "Figure 5 ("+p.name+"): attribute inference AUC", attr)
				} else {
					experiments.PrintQuality(os.Stdout, "Figure 6 ("+p.name+"): link prediction AUC", link)
				}
			}
		case "fig7", "fig8":
			iters := []int{1, 2, 5, 10, 20}
			if *quick {
				iters = []int{1, 5}
			}
			sets := []string{"facebook", "pubmed", "flickr"}
			if *quick {
				sets = []string{"cora"}
			}
			link, attr, err := experiments.RunFig78(sets, iters, opt)
			check(err)
			if id == "fig7" {
				experiments.PrintInitPoints(os.Stdout, "Figure 7: GreedyInit vs random (link prediction)", link)
			} else {
				experiments.PrintInitPoints(os.Stdout, "Figure 8: GreedyInit vs random (attribute inference)", attr)
			}
		case "topk":
			// Explicit flags win; otherwise -quick shrinks the graph.
			// The index comparison uses the paper experiments' default
			// K=128 (candidate rows of k/2 = 64 float64s): at that width
			// the exact scan's working set far exceeds cache, which is
			// the memory-bandwidth regime the quantized tier exists for —
			// and the regime production embedding serving actually runs
			// in. (At K=32 the whole matrix is cache-resident and a
			// 1-byte code scan has nothing to win; see the README table.)
			n, topkK := *topkN, 128
			nSet := false
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "k":
					topkK = *k // not opt.K, which -quick rewrites
				case "topk-n":
					nSet = true
				}
			})
			if *quick && !nSet {
				n = 20000
			}
			// 2000 queries keep each timed path's window tens of
			// milliseconds at minimum, so the perf gate's speedup ratio
			// is not at the mercy of a single GC pause or scheduler
			// hiccup on a shared CI runner.
			b, err := experiments.RunTopK(experiments.TopKOptions{
				N: n, K: topkK, Threads: opt.Threads, Seed: opt.Seed,
				Queries: 2000, Rerank: *rerank,
			})
			check(err)
			experiments.PrintTopK(os.Stdout, b)
			jsonPath := *topkJSON
			if jsonPath == "" {
				jsonPath = "BENCH_topk.json"
			}
			check(experiments.WriteJSON(jsonPath, b))
			fmt.Printf("wrote %s\n", jsonPath)
			if *baseline != "" {
				base, err := experiments.ReadJSON[experiments.TopKBench](*baseline)
				check(err)
				check(experiments.CheckTopKBaseline(b, base, *tolerance))
				fmt.Printf("perf gate: within %.0f%% of %s (ivf %.1fx vs baseline %.1fx, recall %.3f vs %.3f)\n",
					*tolerance*100, *baseline, b.SpeedupIVFVsScan, base.SpeedupIVFVsScan, b.RecallAtK, base.RecallAtK)
			}
		case "update":
			// The delta sweep: -quick shrinks the graph and deltas so CI
			// can gate the incremental speedup on every push. K follows
			// the topk reasoning (K=128 puts the exact rebuild in the
			// memory-bound regime the pipeline exists for); -quick drops
			// to 32 to keep the smoke run short.
			n, updK := *updateN, 128
			nSet, kSet := false, false
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "k":
					updK = *k
					kSet = true
				case "update-n":
					nSet = true
				}
			})
			deltas := []int{100, 1000, 10000}
			repeats := 2
			if *quick {
				if !nSet {
					n = 10000
				}
				if !kSet {
					updK = 32
				}
				deltas = []int{20, 100, 500}
				// Quick updates are cheap but their incremental index
				// refreshes are ~1ms, so the gated speedup ratio needs a
				// min-of-N denominator to shrug off one scheduler blip on
				// a shared CI runner.
				repeats = 3
			}
			b, err := experiments.RunUpdate(experiments.UpdateOptions{
				N: n, K: updK, Threads: opt.Threads, Seed: opt.Seed,
				Shards: *shards, Deltas: deltas, Repeats: repeats,
			})
			check(err)
			experiments.PrintUpdate(os.Stdout, b)
			jsonPath := *topkJSON
			if jsonPath == "" {
				jsonPath = "BENCH_update.json"
			}
			check(experiments.WriteJSON(jsonPath, b))
			fmt.Printf("wrote %s\n", jsonPath)
			if *baseline != "" {
				base, err := experiments.ReadJSON[experiments.UpdateBench](*baseline)
				check(err)
				check(experiments.CheckUpdateBaseline(b, base, *tolerance))
				fmt.Printf("update gate: within %.0f%% of %s\n", *tolerance*100, *baseline)
			}
		case "kernel":
			// Pure-CPU microbenchmark: no graph, no training. -quick
			// shrinks the per-cell timed window; the dims stay the same so
			// quick and full reports gate against each other.
			minTime := 50 * time.Millisecond
			if *quick {
				minTime = 10 * time.Millisecond
			}
			b, err := experiments.RunKernel(experiments.KernelOptions{
				Seed: opt.Seed, MinTime: minTime,
			})
			check(err)
			experiments.PrintKernel(os.Stdout, b)
			jsonPath := *topkJSON
			if jsonPath == "" {
				jsonPath = "BENCH_kernel.json"
			}
			check(experiments.WriteJSON(jsonPath, b))
			fmt.Printf("wrote %s\n", jsonPath)
			if *baseline != "" {
				base, err := experiments.ReadJSON[experiments.KernelBench](*baseline)
				check(err)
				check(experiments.CheckKernelBaseline(b, base, *tolerance))
				fmt.Printf("kernel gate: within %.0f%% of %s (dispatch: %v)\n", *tolerance*100, *baseline, b.ISAs)
			}
		case "replicate":
			// Append throughput is I/O-bound and catch-up replay is
			// dominated by O(Δ) model updates, so the graph can stay
			// moderate; -quick shrinks everything so the perf gate runs
			// on every push. Explicit flags win over -quick.
			n, backlog, replK, appendRecs := *replN, *replBack, 64, 2000
			nSet, backSet, kSet := false, false, false
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "k":
					replK = *k
					kSet = true
				case "repl-n":
					nSet = true
				case "repl-backlog":
					backSet = true
				}
			})
			if *quick {
				if !nSet {
					n = 4000
				}
				if !backSet {
					backlog = 1500
				}
				if !kSet {
					replK = 32
				}
				appendRecs = 500
			}
			b, err := experiments.RunReplicate(experiments.ReplicateOptions{
				N: n, K: replK, Threads: opt.Threads, Seed: opt.Seed,
				Backlog: backlog, AppendRecords: appendRecs,
			})
			check(err)
			experiments.PrintReplicate(os.Stdout, b)
			jsonPath := *topkJSON
			if jsonPath == "" {
				jsonPath = "BENCH_replicate.json"
			}
			check(experiments.WriteJSON(jsonPath, b))
			fmt.Printf("wrote %s\n", jsonPath)
			if *baseline != "" {
				base, err := experiments.ReadJSON[experiments.ReplicateBench](*baseline)
				check(err)
				check(experiments.CheckReplicateBaseline(b, base, *tolerance))
				fmt.Printf("replicate gate: within %.0f%% of %s (sync-free %.1fx vs %.1fx, crossover %.0f vs %.0f)\n",
					*tolerance*100, *baseline, b.SyncFreeSpeedup, base.SyncFreeSpeedup,
					b.CrossoverRecords, base.CrossoverRecords)
			}
		default:
			log.Fatalf("unknown experiment %q", id)
		}
	}

	if *exp == "all" {
		for _, id := range []string{"table2", "table3", "table4", "table5", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig5", "fig6", "fig7", "fig8"} {
			fmt.Printf("\n===== %s =====\n", id)
			run(id)
		}
		return
	}
	run(*exp)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
