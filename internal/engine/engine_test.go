package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/graph"
	"pane/internal/mat"
	"pane/internal/wal"
)

func testConfig() core.Config {
	return core.Config{K: 4, Alpha: 0.15, Eps: 0.05, Seed: 1}
}

// kp builds the *int K field of a batch Query.
func kp(k int) *int { return &k }

func trainTestEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	eng, err := Train(graph.RunningExample(), testConfig(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestTrainStartsAtVersionOne(t *testing.T) {
	eng := trainTestEngine(t)
	if eng.Version() != 1 {
		t.Fatalf("fresh engine version = %d, want 1", eng.Version())
	}
	m := eng.Model()
	if m.Nodes() != 6 || m.Attrs() != 3 {
		t.Fatalf("model shape %dx%d", m.Nodes(), m.Attrs())
	}
}

func TestNewRejectsMismatchedShapes(t *testing.T) {
	g := graph.RunningExample()
	emb, err := core.PANE(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.K = 8 // embedding was trained with K=4
	if _, err := New(g, emb, bad); err == nil {
		t.Fatal("mismatched K accepted")
	}
}

func TestApplyEdgesBumpsVersionAndChangesScores(t *testing.T) {
	eng := trainTestEngine(t)
	before := eng.Model()
	scoreBefore := before.Scorer.Directed(0, 5)

	m, err := eng.ApplyEdges([]graph.Edge{{Src: 0, Dst: 5}, {Src: 5, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 {
		t.Fatalf("version = %d, want 2", m.Version)
	}
	if !m.Graph.HasEdge(0, 5) {
		t.Fatal("inserted edge missing from new model's graph")
	}
	if m.Scorer.Directed(0, 5) == scoreBefore {
		t.Fatal("score unchanged after inserting the edge")
	}
	// The old model is untouched: a reader holding it mid-update sees a
	// consistent pre-update world.
	if before.Version != 1 || before.Graph.HasEdge(0, 5) || before.Scorer.Directed(0, 5) != scoreBefore {
		t.Fatal("previous model mutated by update")
	}
}

func TestApplyAttrsAddsWeight(t *testing.T) {
	eng := trainTestEngine(t)
	w0 := eng.Model().Graph.Attr.At(0, 2)
	m, err := eng.ApplyAttrs([]graph.AttrEntry{{Node: 0, Attr: 2, Weight: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Graph.Attr.At(0, 2); got != w0+1.5 {
		t.Fatalf("attribute weight %v, want %v", got, w0+1.5)
	}
	if m.Version != 2 {
		t.Fatalf("version = %d", m.Version)
	}
}

func TestApplyRejectsBadUpdates(t *testing.T) {
	eng := trainTestEngine(t)
	cases := []func() error{
		func() error { _, err := eng.ApplyEdges(nil); return err },
		func() error { _, err := eng.ApplyEdges([]graph.Edge{{Src: 0, Dst: 99}}); return err },
		func() error { _, err := eng.ApplyAttrs(nil); return err },
		func() error { _, err := eng.ApplyAttrs([]graph.AttrEntry{{Node: 0, Attr: 99, Weight: 1}}); return err },
		func() error { _, err := eng.ApplyAttrs([]graph.AttrEntry{{Node: 0, Attr: 0, Weight: -1}}); return err },
	}
	for i, run := range cases {
		if err := run(); err == nil {
			t.Fatalf("case %d: bad update accepted", i)
		}
	}
	if eng.Version() != 1 {
		t.Fatalf("failed updates bumped version to %d", eng.Version())
	}
}

// sharesEmbedding fails unless m's embedding is prev's: every Xf/Xb page
// the same memory and Y the same matrix — moving Y would move G = YᵀY and
// the whole link space.
func sharesEmbedding(t *testing.T, label string, prev, m *Model) {
	t.Helper()
	for k := range prev.Emb.Xf.Pages() {
		if !m.Emb.Xf.SamePage(prev.Emb.Xf, k) || !m.Emb.Xb.SamePage(prev.Emb.Xb, k) {
			t.Fatalf("%s: page %d of Xf/Xb was copied", label, k)
		}
	}
	if m.Emb.Y != prev.Emb.Y {
		t.Fatalf("%s: Y is not the parent's matrix", label)
	}
}

// TestZeroWeightAttrTouchesNoRows: an attribute entry of weight 0 leaves
// the graph as it was, so the update it rides publishes the next version
// with no dirty row and the parent's embedding.
func TestZeroWeightAttrTouchesNoRows(t *testing.T) {
	var stats []UpdateStats
	eng := trainTestEngine(t, WithUpdateObserver(func(s UpdateStats) { stats = append(stats, s) }))
	prev := eng.Model()
	m, err := eng.ApplyAttrs([]graph.AttrEntry{{Node: 2, Attr: 1, Weight: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != prev.Version+1 {
		t.Fatalf("version %d, want %d", m.Version, prev.Version+1)
	}
	if len(stats) != 1 || stats[0].DirtyNodes != 0 || stats[0].DirtyAttrs != 0 {
		t.Fatalf("update stats %+v, want one update with no dirty rows", stats)
	}
	sharesEmbedding(t, "zero weight", prev, m)
}

// TestRepeatedEdgeWriteIsNoOp: the graph's effect, not the request, is
// what an update acts on. For random graphs and random edge-only writes w,
// applying w a second time changes nothing, so it publishes the next
// version with no dirty row and no affinity frontier, the first
// application's embedding, and every Adj/AdjT page the first's graph. The
// first input is the running example with edge (1,5), where refining the
// endpoints of the re-sent edge took the full path and seeding the
// affinity patch from it re-ran all 12 rows.
func TestRepeatedEdgeWriteIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		g, w := graph.RunningExample(), []graph.Edge{{Src: 1, Dst: 5}}
		if trial > 0 {
			var err error
			g, err = datagen.Generate(datagen.Config{
				Name: "repeat", N: 20 + rng.Intn(300), AvgOutDeg: float64(1 + rng.Intn(6)), D: 4 + rng.Intn(8),
				AttrsPer: 2, Communities: 3, Seed: rng.Int63(),
			})
			if err != nil {
				t.Fatal(err)
			}
			w = make([]graph.Edge, 1+rng.Intn(5))
			for i := range w {
				w[i] = graph.Edge{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)}
			}
		}
		var stats []UpdateStats
		eng, err := Train(g, testConfig(), WithUpdateObserver(func(s UpdateStats) { stats = append(stats, s) }))
		if err != nil {
			t.Fatal(err)
		}
		first, err := eng.ApplyEdges(w)
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.ApplyEdges(w)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d (n=%d, write %v)", trial, g.N, w)
		if s := stats[1]; m.Version != first.Version+1 || s.DirtyNodes != 0 || s.DirtyAttrs != 0 || s.AffinityFrontier != 0 {
			t.Fatalf("%s: version %d after %d, second write %+v; want no dirty row and no frontier", label, m.Version, first.Version, s)
		}
		sharesEmbedding(t, label, first, m)
		for k := 0; k*mat.PageRows < g.N; k++ {
			if !m.Graph.Adj.SamePage(first.Graph.Adj, k) || !m.Graph.AdjT.SamePage(first.Graph.AdjT, k) {
				t.Fatalf("%s: page %d of Adj/AdjT was copied", label, k)
			}
		}
	}
}

// TestNonFiniteAttrWeightRejected: a NaN or infinite attribute weight is
// refused before it reaches the log or the model — the version and the
// WAL's last version stay where they were.
func TestNonFiniteAttrWeightRejected(t *testing.T) {
	eng := trainTestEngine(t)
	log, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyAttrs([]graph.AttrEntry{{Node: 2, Attr: 1, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	before, logged := eng.Version(), log.LastVersion()
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := eng.ApplyAttrs([]graph.AttrEntry{{Node: 2, Attr: 1, Weight: w}}); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	if eng.Version() != before || log.LastVersion() != logged {
		t.Fatalf("version %d and WAL last version %d after refused updates, want %d and %d",
			eng.Version(), log.LastVersion(), before, logged)
	}
}

func TestBatchExecutesAgainstOneVersion(t *testing.T) {
	eng := trainTestEngine(t)
	results, version := eng.Execute([]Query{
		{Op: OpLinkScore, Src: 0, Dst: 4},
		{Op: OpAttrScore, Node: 2, Attr: 1},
		{Op: OpTopAttrs, Node: 5, K: kp(2)},
		{Op: OpTopLinks, Src: 0, K: kp(3)},
		{Op: "bogus"},
	})
	if version != 1 {
		t.Fatalf("batch version %d", version)
	}
	m := eng.Model()
	if *results[0].Score != m.Scorer.Directed(0, 4) || *results[0].Undirected != m.Scorer.Undirected(0, 4) {
		t.Fatalf("link result %+v", results[0])
	}
	if *results[1].Score != m.Emb.AttrScore(2, 1) {
		t.Fatalf("attr result %+v", results[1])
	}
	if len(results[2].Top) != 2 || len(results[3].Top) != 3 {
		t.Fatalf("top results %+v / %+v", results[2], results[3])
	}
	if results[4].Err == "" {
		t.Fatal("unknown op produced no error")
	}
	for i, r := range results[:4] {
		if r.Err != "" {
			t.Fatalf("result %d unexpectedly failed: %s", i, r.Err)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	eng := trainTestEngine(t)
	if _, err := eng.ApplyEdges([]graph.Edge{{Src: 1, Dst: 5}}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.pane")
	p2 := filepath.Join(dir, "b.pane")
	if _, err := eng.Snapshot(p1); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(p1)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Version() != 2 {
		t.Fatalf("restored version %d, want 2", restored.Version())
	}

	// Snapshotting the restored engine must reproduce the file byte for
	// byte: the bundle format is deterministic and lossless.
	if _, err := restored.Snapshot(p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("snapshot not bit-identical after restore: %d vs %d bytes", len(b1), len(b2))
	}

	// And the restored model answers exactly like the live one.
	qs := []Query{{Op: OpLinkScore, Src: 1, Dst: 5}, {Op: OpAttrScore, Node: 0, Attr: 0}}
	live := eng.Model().Execute(qs)
	back := restored.Model().Execute(qs)
	for i := range qs {
		if *live[i].Score != *back[i].Score {
			t.Fatalf("query %d: restored score %v != live %v", i, *back[i].Score, *live[i].Score)
		}
	}
	// A restored engine keeps accepting updates from where it left off.
	m, err := restored.ApplyEdges([]graph.Edge{{Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 {
		t.Fatalf("post-restore update version %d, want 3", m.Version)
	}
}

// TestConcurrentReadsUpdatesSnapshots hammers the engine from all four
// sides at once — run under -race this is the proof that reads resolve
// one immutable model and never observe a torn update, that the serving
// index never answers for a version other than the model it was resolved
// against (queries mid-rebuild degrade to the scan backend instead of
// serving stale rankings), and that snapshots taken mid-update-stream
// are consistent.
func TestConcurrentReadsUpdatesSnapshots(t *testing.T) {
	// nprobe == nlist so IVF answers are full-coverage: result counts stay
	// deterministic while the race test hammers both search paths.
	eng := trainTestEngine(t, WithIndex(IndexConfig{IVF: true, NList: 2, NProbe: 2}))
	dir := t.TempDir()
	const updates = 8

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: single queries, batches, and indexed top-k in both modes.
	for i := 0; i < 4; i++ {
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
				m := eng.Model()
				u, v := rng.Intn(m.Nodes()), rng.Intn(m.Nodes())
				_ = m.Scorer.Directed(u, v)
				_ = m.Emb.AttrScore(u, rng.Intn(m.Attrs()))
				results, _ := eng.Execute([]Query{
					{Op: OpLinkScore, Src: u, Dst: v},
					{Op: OpTopLinks, Src: u, K: kp(3)},
				})
				for _, r := range results {
					if r.Err != "" {
						t.Errorf("reader: %s", r.Err)
						return
					}
				}
				mode := ModeExact
				if rng.Intn(2) == 1 {
					mode = ModeIVF
				}
				ans, err := eng.TopLinks(u, 3, mode, 0)
				if err != nil {
					t.Errorf("indexed reader: %v", err)
					return
				}
				switch ans.Backend {
				case BackendExact, BackendIVF, BackendScan:
				default:
					t.Errorf("indexed reader: unknown backend %q", ans.Backend)
					return
				}
				if len(ans.Results) != 3 {
					t.Errorf("indexed reader: %d results", len(ans.Results))
					return
				}
			}
		}(int64(i))
	}

	// Snapshotters: persist whatever version is current, repeatedly, from
	// TWO goroutines racing on the same path — mirroring paneserve, where
	// the periodic ticker and POST /snapshot can fire together. A fixed
	// iteration count (not stop-gated) guarantees snapshots overlap the
	// update stream even if the updates finish quickly.
	var snaps atomic.Int64
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := filepath.Join(dir, "live.pane")
			for i := 0; i < 5; i++ {
				if _, err := eng.Snapshot(path); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				snaps.Add(1)
			}
		}()
	}

	// Writer: a stream of edge and attribute updates.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < updates; i++ {
		var err error
		if i%2 == 0 {
			_, err = eng.ApplyEdges([]graph.Edge{{Src: rng.Intn(6), Dst: rng.Intn(6)}})
		} else {
			_, err = eng.ApplyAttrs([]graph.AttrEntry{{Node: rng.Intn(6), Attr: rng.Intn(3), Weight: 0.1}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if eng.Version() != 1+updates {
		t.Fatalf("final version %d, want %d", eng.Version(), 1+updates)
	}
	// Once the rebuild queue drains, the index serves the final version
	// again: no rebuild was lost and none outran the model.
	eng.WaitForIndex()
	if st := eng.IndexStatus(); !st.Enabled || st.Version != eng.Version() {
		t.Fatalf("index status %+v after quiesce, model version %d", st, eng.Version())
	}
	if ans, err := eng.TopLinks(0, 3, ModeIVF, 0); err != nil || ans.Backend != BackendIVF {
		t.Fatalf("post-quiesce ivf query: backend %q err %v", ans.Backend, err)
	}
	if snaps.Load() == 0 {
		t.Fatal("snapshotter never ran")
	}
	// The last snapshot on disk is some consistent version ≤ final.
	restored, err := Open(filepath.Join(dir, "live.pane"))
	if err != nil {
		t.Fatalf("restoring mid-stream snapshot: %v", err)
	}
	if v := restored.Version(); v < 1 || v > 1+updates {
		t.Fatalf("restored version %d out of range", v)
	}
}
