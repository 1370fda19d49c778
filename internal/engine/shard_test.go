package engine

import (
	"math/rand"
	"sync"
	"testing"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/graph"
)

// shardTestModel trains one modest community graph once and returns the
// pieces needed to wrap the SAME embedding in engines with different
// shard counts — so cross-engine comparisons see identical vectors.
func shardTestModel(t *testing.T) (*graph.Graph, *core.Embedding, core.Config) {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{
		Name: "shardtest", N: 120, AvgOutDeg: 6, D: 15, AttrsPer: 4,
		Communities: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 8, Alpha: 0.5, Eps: 0.25, Seed: 3}
	emb, err := core.PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, emb, cfg
}

// TestShardedExactBitForBitIdentical is the acceptance criterion of the
// sharded engine: exact top-k through S shards must equal single-shard
// exact EXACTLY — same ids, same float bits — for links and attributes,
// via both the single-query path and the batch path.
func TestShardedExactBitForBitIdentical(t *testing.T) {
	g, emb, cfg := shardTestModel(t)
	newEng := func(shards int) *Engine {
		eng, err := New(g, emb, cfg, WithIndex(IndexConfig{IVF: true, NList: 3, NProbe: 3, Shards: shards}))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	base := newEng(1)
	for _, s := range []int{2, 3, 4, 7} {
		eng := newEng(s)
		if st := eng.IndexStatus(); st.Shards != s {
			t.Fatalf("shards=%d: status reports %d shards", s, st.Shards)
		}
		for u := 0; u < g.N; u += 7 {
			want, err := base.TopLinks(u, 10, ModeExact, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.TopLinks(u, 10, ModeExact, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Backend != BackendExact {
				t.Fatalf("shards=%d u=%d: backend %q", s, u, got.Backend)
			}
			if len(got.Results) != len(want.Results) {
				t.Fatalf("shards=%d u=%d: %d results, want %d", s, u, len(got.Results), len(want.Results))
			}
			for i := range want.Results {
				if got.Results[i] != want.Results[i] {
					t.Fatalf("shards=%d u=%d rank=%d: %v != %v", s, u, i, got.Results[i], want.Results[i])
				}
			}
			wantA, err := base.TopAttrs(u, 5, ModeExact, 0)
			if err != nil {
				t.Fatal(err)
			}
			gotA, err := eng.TopAttrs(u, 5, ModeExact, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantA.Results {
				if gotA.Results[i] != wantA.Results[i] {
					t.Fatalf("shards=%d attrs u=%d rank=%d: %v != %v", s, u, i, gotA.Results[i], wantA.Results[i])
				}
			}
		}
		// The batch path must agree with the single-query path.
		k := 10
		qs := []Query{
			{Op: OpTopLinks, Src: 0, K: &k},
			{Op: OpTopAttrs, Node: 3, K: &k},
			{Op: OpLinkScore, Src: 1, Dst: 2},
			{Op: OpTopLinks, Src: 5, K: &k, Mode: ModeIVF, NProbe: 1000}, // full probe
		}
		wantRes, wantVer := base.Execute(qs)
		gotRes, gotVer := eng.Execute(qs)
		if wantVer != gotVer {
			t.Fatalf("batch versions %d vs %d", wantVer, gotVer)
		}
		for i := range wantRes {
			if wantRes[i].Err != "" || gotRes[i].Err != "" {
				t.Fatalf("batch %d errs: %q / %q", i, wantRes[i].Err, gotRes[i].Err)
			}
			if len(wantRes[i].Top) != len(gotRes[i].Top) {
				t.Fatalf("batch %d: %d vs %d results", i, len(gotRes[i].Top), len(wantRes[i].Top))
			}
			for j := range wantRes[i].Top {
				if wantRes[i].Top[j] != gotRes[i].Top[j] {
					t.Fatalf("batch %d rank %d: %v != %v (shards=%d)", i, j, gotRes[i].Top[j], wantRes[i].Top[j], s)
				}
			}
		}
	}
}

// TestShardedStatusTracksPerShardGenerations pins the sharded observable
// state through a manual rebuild cycle: every shard's generation at v1,
// then all stale (scan fallback at v2, status still showing v1), then
// caught up — every shard's generation is the one cut's version.
func TestShardedStatusTracksPerShardGenerations(t *testing.T) {
	eng := trainTestEngine(t,
		WithIndex(IndexConfig{IVF: true, NList: 2, NProbe: 2, Shards: 3}),
		WithManualIndexRebuild())
	st := eng.IndexStatus()
	if !st.Enabled || st.Version != 1 || st.Shards != 3 {
		t.Fatalf("fresh status %+v", st)
	}

	if _, err := eng.ApplyEdges([]graph.Edge{{Src: 0, Dst: 5}}); err != nil {
		t.Fatal(err)
	}
	ans, err := eng.TopLinks(0, 3, ModeExact, 0)
	if err != nil || ans.Backend != BackendScan || ans.Version != 2 {
		t.Fatalf("mid-rebuild answer %+v err %v", ans, err)
	}
	st = eng.IndexStatus()
	if st.Version != 1 {
		t.Fatalf("mid-rebuild status version %d, want 1 (all shards stale)", st.Version)
	}

	eng.RebuildIndex()
	st = eng.IndexStatus()
	if st.Version != 2 || st.Shards != 3 {
		t.Fatalf("post-rebuild status %+v", st)
	}
	ans, err = eng.TopLinks(0, 3, ModeIVF, 0)
	if err != nil || ans.Backend != BackendIVF || ans.Version != 2 {
		t.Fatalf("post-rebuild ivf answer %+v err %v", ans, err)
	}
}

// TestShardedLifecycleRace interleaves edge updates, the automatic refresh
// worker, manual concurrent rebuilds, and sharded top-k queries under
// -race. Its core assertions are the cut invariants: a batch is either
// wholly scanned or wholly indexed, and the stored cut's version only
// rises and never outruns the model.
func TestShardedLifecycleRace(t *testing.T) {
	g, emb, cfg := shardTestModel(t)
	eng, err := New(g, emb, cfg, WithIndex(IndexConfig{IVF: true, NList: 2, NProbe: 2, Shards: 4}))
	if err != nil {
		t.Fatal(err)
	}
	const updates = 12
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Queriers: sharded top-k in both modes, plus batches.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := rng.Intn(g.N)
				mode := ModeExact
				if rng.Intn(2) == 1 {
					mode = ModeIVF
				}
				ans, err := eng.TopLinks(u, 5, mode, 0)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				switch ans.Backend {
				case BackendExact, BackendIVF, BackendScan:
				default:
					t.Errorf("unknown backend %q", ans.Backend)
					return
				}
				if len(ans.Results) != 5 {
					t.Errorf("%d results", len(ans.Results))
					return
				}
				// A /batch-shaped request: several top-links over two cells
				// (a repeated source among them) beside a top-attrs. The
				// batch resolves ONE shard cut, so its members are all
				// indexed or all scanned, and the same question asked twice
				// — or asked of exact and of full-probe IVF — gets the same
				// answer; members scanned at different generations would not.
				k := 4
				results, _ := eng.Execute([]Query{
					{Op: OpTopLinks, Src: u, K: &k},
					{Op: OpTopLinks, Src: (u + 1) % g.N, K: &k, Mode: ModeIVF},
					{Op: OpTopAttrs, Node: u, K: &k},
					{Op: OpTopLinks, Src: u, K: &k, Mode: ModeIVF, NProbe: 1 << 20},
					{Op: OpTopLinks, Src: u, K: &k},
				})
				scanned := 0
				for _, r := range results {
					if r.Err != "" {
						t.Errorf("batch: %s", r.Err)
						return
					}
					if len(r.Top) != 4 {
						t.Errorf("batch: %d results", len(r.Top))
						return
					}
					if r.Backend == BackendScan {
						scanned++
					}
				}
				if scanned != 0 && scanned != len(results) {
					t.Errorf("batch mixed %d scanned members with %d indexed ones", scanned, len(results)-scanned)
					return
				}
				for _, twin := range []int{3, 4} {
					for j := range results[0].Top {
						if results[0].Top[j] != results[twin].Top[j] {
							t.Errorf("batch members 0 and %d disagree at rank %d: %v vs %v",
								twin, j, results[0].Top[j], results[twin].Top[j])
							return
						}
					}
				}
			}
		}(int64(i))
	}

	wg.Add(1)
	go checkCuts(t, eng, stop, &wg)

	// Manual rebuilder racing the automatic refresh worker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			eng.RebuildIndex()
		}
	}()

	// Writer: the update stream driving the refresh loop.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < updates; i++ {
		if _, err := eng.ApplyEdges([]graph.Edge{{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if eng.Version() != 1+updates {
		t.Fatalf("final version %d, want %d", eng.Version(), 1+updates)
	}
	// Once the pending delta drains, the cut serves the final version: no
	// mark was lost.
	eng.WaitForIndex()
	st := eng.IndexStatus()
	if st.Version != eng.Version() {
		t.Fatalf("index status %+v after quiesce, model version %d", st, eng.Version())
	}
	if ans, err := eng.TopLinks(0, 3, ModeIVF, 0); err != nil || ans.Backend != BackendIVF {
		t.Fatalf("post-quiesce ivf query: backend %q err %v", ans.Backend, err)
	}
}

// checkCuts reads the stored cut until stop closes, reporting one that
// holds the wrong number of shards, falls below a version it already
// showed, or runs ahead of the model.
func checkCuts(t *testing.T, eng *Engine, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	var last uint64
	for {
		select {
		case <-stop:
			return
		default:
		}
		c := eng.shards.cut.Load() // before the model: a cut is stored after its model publishes
		m := eng.Model()
		if len(c.shards) != len(eng.shards.ranges[linkSpace]) || c.version < last || c.version > m.Version {
			t.Errorf("cut at version %d with %d shards, after one at %d, model at %d", c.version, len(c.shards), last, m.Version)
			return
		}
		last = c.version
	}
}

// TestShardConfigSurvivesSnapshot: bundle format v3 records the shard
// layout, so a restored engine rebuilds the same sharded index.
func TestShardConfigSurvivesSnapshot(t *testing.T) {
	eng := trainTestEngine(t, WithIndex(IndexConfig{IVF: true, NList: 2, NProbe: 2, Shards: 3}))
	path := t.TempDir() + "/m.pane"
	if _, err := eng.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st := restored.IndexStatus()
	if !st.Enabled || st.Shards != 3 {
		t.Fatalf("restored status %+v, want 3 shards", st)
	}

	// An explicit WithShards override (paneserve -shards) wins over the
	// bundle's recorded layout without touching its other settings.
	relaid, err := Open(path, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := relaid.IndexStatus(); st.Shards != 2 || !st.IVF {
		t.Fatalf("WithShards override status %+v, want 2 shards with IVF", st)
	}
	a, err := eng.TopLinks(0, 3, ModeExact, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.TopLinks(0, 3, ModeExact, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("rank %d: live %v restored %v", i, a.Results[i], b.Results[i])
		}
	}
}
