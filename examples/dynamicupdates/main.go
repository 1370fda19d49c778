// Dynamic updates through the lifecycle engine: a model is trained once,
// then kept live while the graph evolves — each batch of arriving edges
// is applied as a warm-start update (a couple of CCD sweeps from the
// previous solution instead of a retrain), bumping the model version.
// The example finishes with the full serving lifecycle: snapshot the live
// model to a single bundle file, restore it, and verify the restored
// engine answers identically.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"pane/internal/core"
	"pane/internal/dataset"
	"pane/internal/engine"
	"pane/internal/graph"
)

func main() {
	g, _, err := dataset.Load("cora")
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{K: 64, Alpha: 0.5, Eps: 0.015, Threads: 4, Seed: 1}

	start := time.Now()
	eng, err := engine.Train(g, cfg,
		engine.WithUpdateSweeps(2),
		engine.WithIndex(engine.IndexConfig{IVF: true, Quantize: true, Shards: 4}))
	if err != nil {
		log.Fatal(err)
	}
	coldTime := time.Since(start)
	fmt.Printf("trained version %d: %.2fs (n=%d, m=%d)\n",
		eng.Version(), coldTime.Seconds(), g.N, g.M())

	// The graph evolves: five batches of random edges arrive, each applied
	// as a live update against the running engine.
	rng := rand.New(rand.NewSource(42))
	const batches = 5
	perBatch := g.M() / 100 / batches
	if perBatch < 1 {
		perBatch = 1
	}
	var updTotal time.Duration
	for i := 0; i < batches; i++ {
		batch := make([]graph.Edge, perBatch)
		for j := range batch {
			batch[j] = graph.Edge{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)}
		}
		start = time.Now()
		m, err := eng.ApplyEdges(batch)
		if err != nil {
			log.Fatal(err)
		}
		updTotal += time.Since(start)
		fmt.Printf("  +%d edges -> version %d (m=%d, %.2fs)\n",
			perBatch, m.Version, m.Graph.M(), time.Since(start).Seconds())
	}

	// Top-k queries stay live throughout: each model version gets its own
	// serving index (exact + IVF + the SQ8/IVFSQ quantized tiers), split
	// into 4 row shards that one refresh cycle rebuilds in parallel after
	// an update lands. A query that arrives mid-refresh — before the cut
	// at its version is stored — is answered by brute force at the
	// current version; the response says which backend ran, and the index
	// status shows the version the index has caught up to.
	eng.WaitForIndex()
	st := eng.IndexStatus()
	fmt.Printf("serving index: %d shards at version %d (model at %d)\n", st.Shards, st.Version, eng.Version())
	// Small edge batches ride the delta pipeline: only the touched rows
	// were re-swept, and each shard refreshed (or republished) its index
	// incrementally instead of rebuilding — the counters prove it.
	fmt.Printf("update path: %d incremental refresh cycles, %d full builds, last delta %d rows\n",
		st.IncrementalRefreshes, st.FullRebuilds, st.LastDeltaRows)
	for _, mode := range []string{engine.ModeExact, engine.ModeIVF, engine.ModeSQ8, engine.ModeIVFSQ} {
		ans, err := eng.TopLinks(0, 3, mode, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("top-links(0) mode=%-5s -> backend=%-5s version=%d top=%v\n",
			mode, ans.Backend, ans.Version, ans.Results)
	}

	// How good is the warm-updated model? Compare against a cold retrain
	// on the final graph under the same objective.
	live := eng.Model()
	start = time.Now()
	cold, err := core.ParallelPANE(live.Graph, cfg)
	if err != nil {
		log.Fatal(err)
	}
	retrainTime := time.Since(start)
	f, b := core.AffinityFromGraph(live.Graph, cfg.Alpha, cfg.Iterations(), 1)
	fmt.Printf("\n%-18s %10s %14s\n", "variant", "time", "objective")
	fmt.Printf("%-18s %9.2fs %14.1f\n", "live (5 updates)", updTotal.Seconds(), core.Objective(live.Emb, f, b))
	fmt.Printf("%-18s %9.2fs %14.1f\n", "cold retrain", retrainTime.Seconds(), core.Objective(cold, f, b))
	fmt.Printf("\nwarm updates reach retrain-level fit in %.0f%% of the time\n",
		100*updTotal.Seconds()/retrainTime.Seconds())

	// Snapshot the live model and restore it: same version, same answers.
	dir, err := os.MkdirTemp("", "pane-snapshot")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.pane")
	if _, err := eng.Snapshot(path); err != nil {
		log.Fatal(err)
	}
	restored, err := engine.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	three := 3
	queries := []engine.Query{
		{Op: engine.OpLinkScore, Src: 0, Dst: 1},
		{Op: engine.OpTopAttrs, Node: 2, K: &three},
	}
	before, bv := eng.Execute(queries)
	after, av := restored.Execute(queries)
	if bv != av || *before[0].Score != *after[0].Score {
		log.Fatalf("restore mismatch: version %d vs %d, score %v vs %v",
			bv, av, *before[0].Score, *after[0].Score)
	}
	fmt.Printf("\nsnapshot -> restore: version %d preserved, scores identical\n", av)
}
