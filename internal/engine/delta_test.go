package engine

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/graph"
	"pane/internal/mat"
)

// deltaTestEngine trains a modest community graph and wraps it with the
// full index stack (ivf + quantized tiers) at the given shard count and
// refresh threshold.
func deltaTestEngine(t *testing.T, shards int, threshold float64, extra ...Option) (*Engine, *graph.Graph) {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{
		Name: "deltatest", N: 400, AvgOutDeg: 6, D: 24, AttrsPer: 4,
		Communities: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 8, Alpha: 0.5, Eps: 0.25, Seed: 11}
	opts := append([]Option{
		WithIndex(IndexConfig{IVF: true, NList: 4, NProbe: 4, Shards: shards, Quantize: true}),
		WithRefreshThreshold(threshold),
	}, extra...)
	eng, err := Train(g, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, g
}

func mustTop(t *testing.T, eng *Engine, links bool, id, k int, mode string, nprobe int) TopKAnswer {
	t.Helper()
	var (
		ans TopKAnswer
		err error
	)
	if links {
		ans, err = eng.TopLinks(id, k, mode, nprobe)
	} else {
		ans, err = eng.TopAttrs(id, k, mode, nprobe)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

func sameAnswers(t *testing.T, label string, want, got TopKAnswer) {
	t.Helper()
	if len(want.Results) != len(got.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if want.Results[i] != got.Results[i] {
			t.Fatalf("%s: rank %d: %v != %v", label, i, got.Results[i], want.Results[i])
		}
	}
}

// TestIncrementalRefreshMatchesFullBuild is the engine-level refresh
// property: after a stream of small edge updates served entirely by
// incremental refresh, the published index must answer bit-for-bit like a
// fresh engine built from scratch around the same model — exact and sq8
// directly, ivf/ivfsq through the full-probe window (full-probe results
// equal exact regardless of the coarse quantizer, which incremental
// refresh deliberately freezes while a fresh build retrains it). Edge
// deltas keep Y fixed, so every clean Z row is bit-identical across the
// stream; attribute deltas ride the low-rank correction and are verified
// by recall instead (TestAttrUpdateGramCorrection).
func TestIncrementalRefreshMatchesFullBuild(t *testing.T) {
	eng, g := deltaTestEngine(t, 3, 1.0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		edges := []graph.Edge{
			{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)},
			{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)},
		}
		if _, err := eng.ApplyEdges(edges); err != nil {
			t.Fatal(err)
		}
		// Quiesce between updates so each delta gets its own refresh
		// cycle instead of coalescing into one (coalescing is exercised by
		// the race test).
		eng.WaitForIndex()
	}
	st := eng.IndexStatus()
	if st.Version != eng.Version() {
		t.Fatalf("index at %d, model at %d", st.Version, eng.Version())
	}
	if st.IncrementalRefreshes == 0 {
		t.Fatalf("no incremental refreshes recorded: %+v", st)
	}

	// A fresh engine around the SAME post-update model: identical
	// candidate matrices, so exact/sq8 must match bit for bit.
	m := eng.Model()
	fresh, err := New(m.Graph, m.Emb, m.Cfg,
		WithIndex(IndexConfig{IVF: true, NList: 4, NProbe: 4, Shards: 3, Quantize: true}))
	if err != nil {
		t.Fatal(err)
	}
	nlist := fresh.IndexStatus().NList
	for u := 0; u < g.N; u += 13 {
		for _, mode := range []string{ModeExact, ModeSQ8} {
			want := mustTop(t, fresh, true, u, 10, mode, 0)
			got := mustTop(t, eng, true, u, 10, mode, 0)
			if got.Backend != mode {
				t.Fatalf("u=%d mode=%s: served by %q", u, mode, got.Backend)
			}
			sameAnswers(t, "links "+mode, want, got)
			sameAnswers(t, "attrs "+mode,
				mustTop(t, fresh, false, u, 6, mode, 0), mustTop(t, eng, false, u, 6, mode, 0))
		}
		// Full-probe IVF degenerates to exact on both engines, which pins
		// the refreshed inverted lists' completeness.
		sameAnswers(t, "links ivf full-probe",
			mustTop(t, eng, true, u, 10, ModeExact, 0), mustTop(t, eng, true, u, 10, ModeIVF, nlist))
	}
}

// TestHealthzCountersTrackIncrementalRefresh is the acceptance check of
// the delta pipeline: an update touching ~0.5% of the rows must publish a
// fresh index via incremental refresh — visible in the healthz counters —
// while a threshold-busting update falls back to full rebuilds.
func TestHealthzCountersTrackIncrementalRefresh(t *testing.T) {
	const shards = 2
	eng, g := deltaTestEngine(t, shards, DefaultRefreshThreshold)
	st := eng.IndexStatus()
	if st.FullRebuilds != shards || st.IncrementalRefreshes != 0 {
		t.Fatalf("initial counters %+v, want %d full builds", st, shards)
	}
	if st.RefreshThreshold != DefaultRefreshThreshold {
		t.Fatalf("threshold %v reported, want %v", st.RefreshThreshold, DefaultRefreshThreshold)
	}

	// 2 dirty rows of 400 = 0.5% — far under the threshold.
	if _, err := eng.ApplyEdges([]graph.Edge{{Src: 1, Dst: 399}}); err != nil {
		t.Fatal(err)
	}
	eng.WaitForIndex()
	st = eng.IndexStatus()
	if st.IncrementalRefreshes != shards || st.FullRebuilds != shards {
		t.Fatalf("after small update: %+v, want %d incremental and still %d full", st, shards, shards)
	}
	if st.LastDeltaRows != 2 {
		t.Fatalf("last delta %d rows, want 2", st.LastDeltaRows)
	}
	if st.Version != eng.Version() {
		t.Fatalf("index at %d, model at %d", st.Version, eng.Version())
	}
	if ans := mustTop(t, eng, true, 1, 5, ModeSQ8, 0); ans.Backend != BackendSQ8 || ans.Version != eng.Version() {
		t.Fatalf("post-refresh answer %+v", ans)
	}

	// An update touching well past 20% of the node rows must rebuild.
	big := make([]graph.Edge, 0, g.N/2)
	for u := 0; u+1 < g.N; u += 2 {
		big = append(big, graph.Edge{Src: u, Dst: u + 1})
	}
	if _, err := eng.ApplyEdges(big); err != nil {
		t.Fatal(err)
	}
	eng.WaitForIndex()
	st2 := eng.IndexStatus()
	if st2.FullRebuilds != st.FullRebuilds+shards {
		t.Fatalf("big update did not full-rebuild: %+v -> %+v", st, st2)
	}
	if st2.IncrementalRefreshes != st.IncrementalRefreshes {
		t.Fatalf("big update counted as incremental: %+v", st2)
	}
	if st2.LastDeltaRows != uint64(g.N+g.D) {
		t.Fatalf("full update delta %d rows, want %d", st2.LastDeltaRows, g.N+g.D)
	}
}

// recallAt measures |want ∩ got| / |want| over the result ids.
func recallAt(want, got []core.Scored) float64 {
	if len(want) == 0 {
		return 1
	}
	ids := make(map[int]bool, len(got))
	for _, s := range got {
		ids[s.ID] = true
	}
	hit := 0
	for _, s := range want {
		if ids[s.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// TestAttrUpdateGramCorrection: a small attribute update moves Y and with
// it G = YᵀY, but instead of poisoning the link space into full rebuilds
// it now ships a low-rank Z-correction: every shard cycle stays
// incremental, the counters record the correction, the corrected link
// index answers with retrain-level recall against a fresh build, and the
// attribute space (served from exactly-patched Y rows, no correction
// involved) still matches bit for bit.
func TestAttrUpdateGramCorrection(t *testing.T) {
	var stats []UpdateStats
	// Every cell of the grid, so the reseat arm re-derives all six; the
	// inverted modes probe every list, which takes the fresh build's
	// retrained quantizer out of the comparison.
	full := IndexConfig{IVF: true, NList: 4, NProbe: 4, Shards: 2, Quantize: true, FP16: true}
	eng, _ := deltaTestEngine(t, 2, DefaultRefreshThreshold, WithIndex(full),
		WithUpdateObserver(func(s UpdateStats) { stats = append(stats, s) }))
	before := eng.IndexStatus()
	if _, err := eng.ApplyAttrs([]graph.AttrEntry{{Node: 10, Attr: 3, Weight: 2}}); err != nil {
		t.Fatal(err)
	}
	eng.WaitForIndex()
	after := eng.IndexStatus()
	if after.FullRebuilds != before.FullRebuilds {
		t.Fatalf("attr update fell back to full link rebuilds: %+v -> %+v", before, after)
	}
	if after.IncrementalRefreshes != before.IncrementalRefreshes+2 {
		t.Fatalf("attr update not served incrementally: %+v -> %+v", before, after)
	}
	if len(stats) != 1 || !stats[0].GramCorrection || !stats[0].Incremental {
		t.Fatalf("observer saw %+v, want a gram-corrected incremental update", stats)
	}
	if as := eng.AffinityStatus(); as.GramCorrections != 1 {
		t.Fatalf("affinity status %+v, want 1 gram correction", as)
	}
	m := eng.Model()
	fresh, err := New(m.Graph, m.Emb, m.Cfg, WithIndex(full))
	if err != nil {
		t.Fatal(err)
	}
	// The corrected Z differs from a fresh Xb·G only by float round-off
	// (~1e-15 relative), which can swap genuinely tied candidates but not
	// lose a clear top-k member.
	for _, mode := range []string{ModeExact, ModeIVF, ModeSQ8, ModeIVFSQ, ModeFP16, ModeIVFFP16} {
		totalRecall, queries := 0.0, 0
		for u := 0; u < m.Nodes(); u += 29 {
			want := mustTop(t, fresh, true, u, 8, mode, 0)
			got := mustTop(t, eng, true, u, 8, mode, 0)
			if got.Backend != mode {
				t.Fatalf("mode %s answered by %q", mode, got.Backend)
			}
			totalRecall += recallAt(want.Results, got.Results)
			queries++
			sameAnswers(t, "attrs "+mode+" after attr update",
				mustTop(t, fresh, false, u, 5, mode, 0), mustTop(t, eng, false, u, 5, mode, 0))
		}
		if avg := totalRecall / float64(queries); avg < 0.99 {
			t.Fatalf("gram-corrected link recall %.4f in mode %s vs fresh build, want >= 0.99", avg, mode)
		}
	}
}

// TestZeroThresholdDisablesDeltaPath: WithRefreshThreshold(0) must keep
// every update on the full-sweep + full-rebuild path.
func TestZeroThresholdDisablesDeltaPath(t *testing.T) {
	var stats []UpdateStats
	eng, _ := deltaTestEngine(t, 2, 0, WithUpdateObserver(func(s UpdateStats) {
		stats = append(stats, s)
	}))
	if _, err := eng.ApplyEdges([]graph.Edge{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	eng.WaitForIndex()
	if st := eng.IndexStatus(); st.IncrementalRefreshes != 0 {
		t.Fatalf("threshold 0 still refreshed incrementally: %+v", st)
	}
	if len(stats) != 1 || stats[0].Incremental || stats[0].DirtyNodes != 2 {
		t.Fatalf("observer saw %+v", stats)
	}
}

// TestUpdateObserverReportsDeltas: the observer sees each update's delta
// size and path.
func TestUpdateObserverReportsDeltas(t *testing.T) {
	var stats []UpdateStats
	eng, _ := deltaTestEngine(t, 2, 1.0, WithUpdateObserver(func(s UpdateStats) {
		stats = append(stats, s)
	}))
	if _, err := eng.ApplyEdges([]graph.Edge{{Src: 5, Dst: 9}, {Src: 9, Dst: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyAttrs([]graph.AttrEntry{{Node: 2, Attr: 7, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("%d observations", len(stats))
	}
	if !stats[0].Incremental || stats[0].DirtyNodes != 2 || stats[0].DirtyAttrs != 0 || stats[0].Version != 2 {
		t.Fatalf("edge update stats %+v", stats[0])
	}
	if !stats[1].Incremental || stats[1].DirtyNodes != 1 || stats[1].DirtyAttrs != 1 || stats[1].Version != 3 {
		t.Fatalf("attr update stats %+v", stats[1])
	}
}

// TestAffinityCountersTrackIncrementalRecurrence: the first update has no
// retained state and re-runs the recurrence in full; subsequent small
// updates patch it over the delta's frontier, with the counters, the
// observer's timing split, and the frontier size all reporting it.
func TestAffinityCountersTrackIncrementalRecurrence(t *testing.T) {
	var stats []UpdateStats
	// Every cell of the grid, so the reseat arm re-derives all six; the
	// inverted modes probe every list, which takes the fresh build's
	// retrained quantizer out of the comparison.
	full := IndexConfig{IVF: true, NList: 4, NProbe: 4, Shards: 2, Quantize: true, FP16: true}
	eng, _ := deltaTestEngine(t, 2, DefaultRefreshThreshold, WithIndex(full),
		WithUpdateObserver(func(s UpdateStats) { stats = append(stats, s) }))
	if as := eng.AffinityStatus(); as.Incremental != 0 || as.Full != 0 {
		t.Fatalf("initial affinity status %+v", as)
	}
	if _, err := eng.ApplyEdges([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	as := eng.AffinityStatus()
	if as.Full != 1 || as.Incremental != 0 {
		t.Fatalf("first update affinity status %+v, want one full recurrence", as)
	}
	if stats[0].AffinityIncremental || stats[0].AffinitySeconds <= 0 || stats[0].CCDSeconds <= 0 {
		t.Fatalf("first update stats %+v", stats[0])
	}
	if _, err := eng.ApplyEdges([]graph.Edge{{Src: 3, Dst: 4}}); err != nil {
		t.Fatal(err)
	}
	as = eng.AffinityStatus()
	if as.Full != 1 || as.Incremental != 1 {
		t.Fatalf("second update affinity status %+v, want one incremental patch", as)
	}
	if !stats[1].AffinityIncremental || stats[1].AffinityFrontier < 1 {
		t.Fatalf("second update stats %+v, want a frontier-restricted patch", stats[1])
	}
	if as.FrontierRows != uint64(stats[1].AffinityFrontier) {
		t.Fatalf("status frontier %d vs observer %d", as.FrontierRows, stats[1].AffinityFrontier)
	}
	eng.WaitForIndex()
}

// TestChainedDeltaLifecycle chains dozens of mixed edge and attribute
// deltas through one engine — the model-side state patched throughout,
// attribute deltas riding the low-rank correction — while queriers run
// concurrently (CI repeats this test under -race). At the end the model
// side must have stayed incremental after its first recurrence, and the
// served link index must match a fresh build around the final model at
// retrain-level recall.
func TestChainedDeltaLifecycle(t *testing.T) {
	// Thresholds pinned to 1.0: on a 400-node graph a popular attribute's
	// frontier easily exceeds the production 20% budget (the fallback is
	// its own test); here we exercise the longest possible patch chain.
	eng, g := deltaTestEngine(t, 2, 1.0, WithAffinityThreshold(1))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
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
				mode := []string{ModeExact, ModeIVF, ModeSQ8, ModeIVFSQ}[rng.Intn(4)]
				if _, err := eng.TopLinks(rng.Intn(g.N), 5, mode, 0); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(int64(40 + i))
	}
	rng := rand.New(rand.NewSource(17))
	const chain = 40
	for i := 0; i < chain; i++ {
		var err error
		if i%4 == 3 {
			_, err = eng.ApplyAttrs([]graph.AttrEntry{
				{Node: rng.Intn(g.N), Attr: rng.Intn(g.D), Weight: 1 + rng.Float64()},
			})
		} else {
			_, err = eng.ApplyEdges([]graph.Edge{
				{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)},
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		// Quiesce so each delta gets its own refresh cycle: at K=8 the
		// factor width is 4, so even two coalesced rank-2 corrections
		// legitimately fall back to a full rebuild. Production widths
		// (k/2 = 64 at K=128) absorb long coalesced chains.
		eng.WaitForIndex()
	}
	close(stop)
	wg.Wait()
	eng.WaitForIndex()

	as := eng.AffinityStatus()
	if as.Full != 1 || as.Incremental != chain-1 {
		t.Fatalf("affinity counters %+v after %d chained deltas, want 1 full + %d incremental", as, chain, chain-1)
	}
	if as.GramCorrections != chain/4 {
		t.Fatalf("%d gram corrections, want %d", as.GramCorrections, chain/4)
	}
	st := eng.IndexStatus()
	if st.Version != eng.Version() || st.FullRebuilds != uint64(st.Shards) {
		t.Fatalf("index status %+v after quiesce, model at %d", st, eng.Version())
	}
	m := eng.Model()
	fresh, err := New(m.Graph, m.Emb, m.Cfg,
		WithIndex(IndexConfig{IVF: true, NList: 4, NProbe: 4, Shards: 2, Quantize: true}))
	if err != nil {
		t.Fatal(err)
	}
	totalRecall, queries := 0.0, 0
	for u := 0; u < g.N; u += 17 {
		want := mustTop(t, fresh, true, u, 10, ModeExact, 0)
		got := mustTop(t, eng, true, u, 10, ModeExact, 0)
		totalRecall += recallAt(want.Results, got.Results)
		queries++
	}
	if avg := totalRecall / float64(queries); avg < 0.99 {
		t.Fatalf("post-chain link recall %.4f vs fresh build, want >= 0.99", avg)
	}
}

// TestIndexConfigValidation: misconfiguration fails engine construction
// with a descriptive error instead of being silently clamped.
func TestIndexConfigValidation(t *testing.T) {
	g := graph.RunningExample() // 6 nodes
	emb, err := core.PANE(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		opts []Option
	}{
		{"WithShards(0)", []Option{WithIndex(IndexConfig{}), WithShards(0)}},
		{"WithShards(-1)", []Option{WithIndex(IndexConfig{}), WithShards(-1)}},
		{"shards > rows", []Option{WithIndex(IndexConfig{Shards: 7})}},
		{"negative shards", []Option{WithIndex(IndexConfig{Shards: -2})}},
		{"negative rerank", []Option{WithIndex(IndexConfig{Quantize: true, Rerank: -1})}},
		{"negative nlist", []Option{WithIndex(IndexConfig{IVF: true, NList: -3})}},
		{"negative nprobe", []Option{WithIndex(IndexConfig{IVF: true, NProbe: -1})}},
		{"negative threads", []Option{WithIndex(IndexConfig{Threads: -4})}},
		{"threshold < 0", []Option{WithRefreshThreshold(-0.1)}},
		{"threshold > 1", []Option{WithRefreshThreshold(1.5)}},
		{"affinity threshold 0", []Option{WithAffinityThreshold(0)}},
		{"affinity threshold > 1", []Option{WithAffinityThreshold(1.5)}},
	}
	for _, tc := range bad {
		if _, err := New(g, emb, testConfig(), tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The documented defaults stay valid: zero config means one shard.
	if _, err := New(g, emb, testConfig(), WithIndex(IndexConfig{})); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if _, err := New(g, emb, testConfig(), WithIndex(IndexConfig{Shards: 6})); err != nil {
		t.Fatalf("shards == rows rejected: %v", err)
	}
	// WithShards(0) fails even without an index configuration in effect.
	if _, err := New(g, emb, testConfig(), WithShards(0)); err == nil {
		t.Error("WithShards(0) without index config accepted")
	}
}

// TestDeltaOverlapLifecycleRace floods the engine with concurrent small
// updates whose deltas are alternately disjoint and overlapping while
// queriers and a white-box invariant checker run under -race. The
// assertions are the cut invariants of the delta pipeline — the stored
// cut's version only rises and never outruns the model — and, after
// quiescing, that the coalesced deltas were all refreshed incrementally
// and the index serves the final version exactly like a fresh build.
func TestDeltaOverlapLifecycleRace(t *testing.T) {
	eng, g := deltaTestEngine(t, 4, 1.0)
	var wg sync.WaitGroup
	stop := make(chan struct{})

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
				mode := []string{ModeExact, ModeIVF, ModeSQ8, ModeIVFSQ}[rng.Intn(4)]
				ans, err := eng.TopLinks(u, 5, mode, 0)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				switch ans.Backend {
				case BackendExact, BackendIVF, BackendSQ8, BackendIVFSQ, BackendScan:
				default:
					t.Errorf("unknown backend %q", ans.Backend)
					return
				}
			}
		}(int64(i))
	}

	wg.Add(1)
	go checkCuts(t, eng, stop, &wg)

	// Hold the build lock until a few updates have landed, so their marks
	// must coalesce into one pending delta behind the blocked worker.
	eng.shards.buildMu.Lock()

	// Two writers: disjoint-delta updates on separate node ranges and
	// overlapping-delta updates hammering one small hot set. ApplyEdges
	// serializes internally; the races of interest are between the
	// resulting marks, the refresh worker, and the queriers.
	const updatesPerWriter = 8
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < updatesPerWriter; i++ {
				var edges []graph.Edge
				if w == 0 {
					// Disjoint: low node range, distinct pairs.
					a := rng.Intn(g.N / 2)
					edges = []graph.Edge{{Src: a, Dst: (a + 1) % (g.N / 2)}}
				} else {
					// Overlapping: a fixed hot pair plus a random endpoint.
					edges = []graph.Edge{
						{Src: g.N - 1, Dst: g.N - 2},
						{Src: g.N - 1, Dst: g.N/2 + rng.Intn(g.N/2)},
					}
				}
				if _, err := eng.ApplyEdges(edges); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	for eng.Version() < 5 && !t.Failed() {
		runtime.Gosched()
	}
	eng.shards.buildMu.Unlock()
	writers.Wait()
	close(stop)
	wg.Wait()

	const updates = 2 * updatesPerWriter
	if eng.Version() != 1+updates {
		t.Fatalf("final version %d, want %d", eng.Version(), 1+updates)
	}
	eng.WaitForIndex()
	st := eng.IndexStatus()
	if st.Version != eng.Version() {
		t.Fatalf("index status %+v after quiesce, model at %d", st, eng.Version())
	}
	// Every shard of every cycle refreshed incrementally: no coalesced
	// delta was lost and forced a full rebuild. Fewer cycles than updates
	// ran: the held marks coalesced.
	if st.FullRebuilds != uint64(st.Shards) || st.IncrementalRefreshes == 0 ||
		st.IncrementalRefreshes >= updates*uint64(st.Shards) {
		t.Fatalf("index status %+v after %d updates: want %d initial full builds and fewer than %d incremental refreshes",
			st, updates, st.Shards, updates*st.Shards)
	}
	// The quiesced incremental index still answers exactly like a fresh
	// build around the final model.
	m := eng.Model()
	fresh, err := New(m.Graph, m.Emb, m.Cfg,
		WithIndex(IndexConfig{IVF: true, NList: 4, NProbe: 4, Shards: 4, Quantize: true}))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u += 37 {
		sameAnswers(t, "post-race exact",
			mustTop(t, fresh, true, u, 8, ModeExact, 0), mustTop(t, eng, true, u, 8, ModeExact, 0))
		sameAnswers(t, "post-race sq8",
			mustTop(t, fresh, true, u, 8, ModeSQ8, 0), mustTop(t, eng, true, u, 8, ModeSQ8, 0))
	}
}

// TestRefreshCycleTargetsMarkedModel: a cycle builds the cut for the model
// its pending delta names, never for whatever model is current when it
// runs, so a model superseded before its cycle still gets a correct cut
// and the next cycle reaches the newest — both incrementally, with no
// version re-check and no full rebuild.
func TestRefreshCycleTargetsMarkedModel(t *testing.T) {
	all := IndexConfig{IVF: true, NList: 4, NProbe: 4, Shards: 2, Quantize: true, FP16: true}
	setup := func(t *testing.T) (*Engine, func() *Model) {
		eng, g := deltaTestEngine(t, 2, 1.0, WithIndex(all), WithManualIndexRebuild())
		rng := rand.New(rand.NewSource(5))
		// Every update moves node 7's rows, so a cycle that read a later
		// model than its delta's would put that model's row in its cut.
		return eng, func() *Model {
			m, err := eng.ApplyEdges([]graph.Edge{{Src: 7, Dst: rng.Intn(g.N)}, {Src: rng.Intn(g.N), Dst: rng.Intn(g.N)}})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	// matchesFresh: c is at m's version, holds the Z blocks a fresh build
	// around m computes, and answers like it in all six modes, the
	// inverted ones at full probe (a fresh build retrains the quantizer a
	// refresh keeps frozen).
	matchesFresh := func(t *testing.T, label string, m *Model, c *cut) {
		t.Helper()
		if c == nil || c.version != m.Version {
			t.Fatalf("%s: no cut at version %d", label, m.Version)
		}
		fresh, err := New(m.Graph, m.Emb, m.Cfg, WithIndex(all))
		if err != nil {
			t.Fatal(err)
		}
		for s, sh := range fresh.shards.cut.Load().shards {
			if !reflect.DeepEqual(c.shards[s].rows[linkSpace].Dense().Data, sh.rows[linkSpace].Dense().Data) {
				t.Fatalf("%s: shard %d's block of Z differs from a fresh build's", label, s)
			}
		}
		for u := 0; u < m.Nodes(); u += 23 {
			for _, mode := range allModes {
				nprobe := 0
				if modeCell[mode].layout == inverted {
					nprobe = 1 << 20
				}
				links, lb, err1 := m.topLinks(c, nil, u, 10, mode, nprobe)
				attrs, ab, err2 := m.topAttrs(c, nil, u, 6, mode, nprobe)
				if err1 != nil || err2 != nil || lb != mode || ab != mode {
					t.Fatalf("%s u=%d mode=%s: backends %q %q, errs %v %v", label, u, mode, lb, ab, err1, err2)
				}
				sameAnswers(t, label+" links "+mode, mustTop(t, fresh, true, u, 10, mode, nprobe), TopKAnswer{Results: links})
				sameAnswers(t, label+" attrs "+mode, mustTop(t, fresh, false, u, 6, mode, nprobe), TopKAnswer{Results: attrs})
			}
		}
	}

	t.Run("manual", func(t *testing.T) {
		eng, update := setup(t)
		before := eng.IndexStatus()
		update()
		m3 := update()
		eng.RebuildIndex()
		st := eng.IndexStatus()
		if st.Version != m3.Version || st.FullRebuilds != before.FullRebuilds ||
			st.IncrementalRefreshes != before.IncrementalRefreshes+uint64(st.Shards) {
			t.Fatalf("status %+v -> %+v: want one incremental cycle to version %d", before, st, m3.Version)
		}
		matchesFresh(t, "coalesced", m3, eng.freshShards(m3))
	})

	t.Run("superseded", func(t *testing.T) {
		eng, update := setup(t)
		before := eng.IndexStatus()
		m2 := update()
		d := eng.shards.take(false)
		m3 := update()
		eng.build(d)
		matchesFresh(t, "superseded", m2, eng.shards.cut.Load())
		if eng.freshShards(m3) != nil {
			t.Fatal("the cycle marked for v2 served v3")
		}
		eng.RebuildIndex()
		matchesFresh(t, "next cycle", m3, eng.freshShards(m3))
		if st := eng.IndexStatus(); st.FullRebuilds != before.FullRebuilds {
			t.Fatalf("status %+v -> %+v: a cycle rebuilt in full", before, st)
		}
	})
}

// allModes lists the six cells' query modes.
var allModes = []string{ModeExact, ModeSQ8, ModeFP16, ModeIVF, ModeIVFSQ, ModeIVFFP16}

// cutAnswers answers a fixed probe set in all six modes (the inverted
// ones at full probe too) straight off one retained cut of one model.
func cutAnswers(t *testing.T, m *Model, c *cut) (out [][]core.Scored) {
	t.Helper()
	for u := 0; u < m.Nodes(); u += 57 {
		for _, mode := range allModes {
			for _, nprobe := range []int{0, 1 << 20} {
				res, backend, err := m.topLinks(c, nil, u, 8, mode, nprobe)
				if err != nil || backend != mode {
					t.Errorf("u=%d mode=%s: backend %q, err %v", u, mode, backend, err) // readers call this too
					return nil
				}
				out = append(out, res)
			}
		}
	}
	return out
}

// TestRefreshChainSharesPages is the engine-level copy-on-write property:
// 200 edge updates, each refreshed on its own, through all six cells in
// two shards and — the same updates — in one. Every generation shares
// with its parent every page of Z no dirty row is on; every retained cut,
// read all the while by goroutines racing the refreshes, keeps answering
// exactly as it did when it was published; sharded answers equal
// unsharded ones; and the last generation equals a fresh build around the
// final model bit for bit — as does an engine restored from a snapshot of
// it, which encodes its cells from the model as the fresh build does.
func TestRefreshChainSharesPages(t *testing.T) {
	all := IndexConfig{IVF: true, NList: 4, NProbe: 4, Quantize: true, FP16: true}
	sharded, unsharded := all, all
	sharded.Shards, unsharded.Shards = 2, 1
	eng, g := deltaTestEngine(t, 2, 1.0, WithIndex(sharded), WithAffinityThreshold(1))
	one, _ := deltaTestEngine(t, 1, 1.0, WithIndex(unsharded), WithAffinityThreshold(1))

	type retained struct {
		m    *Model
		c    *cut
		want [][]core.Scored
	}
	retain := func() retained {
		m := eng.Model()
		c := eng.freshShards(m)
		if c == nil {
			t.Fatalf("no cut at version %d after WaitForIndex", m.Version)
		}
		return retained{m, c, cutAnswers(t, m, c)}
	}
	var mu sync.Mutex
	kept := []retained{retain()}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				k := kept[i%len(kept)]
				mu.Unlock()
				if !reflect.DeepEqual(cutAnswers(t, k.m, k.c), k.want) {
					t.Errorf("the cut at version %d changed its answers under a later refresh", k.m.Version)
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(23))
	const chain = 200
	for i := 0; i < chain; i++ {
		edges := []graph.Edge{{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)}, {Src: rng.Intn(g.N), Dst: rng.Intn(g.N)}}
		prev := kept[len(kept)-1].c
		_, eff, err := kept[len(kept)-1].m.Graph.Apply(edges, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*Engine{eng, one} {
			if _, err := e.ApplyEdges(edges); err != nil {
				t.Fatal(err)
			}
			e.WaitForIndex()
		}
		cur := retain()
		dirtyPage := map[[2]int]bool{}
		for _, r := range eff.Nodes {
			for s, rg := range eng.shards.ranges[linkSpace] {
				if r >= rg[0] && r < rg[1] {
					dirtyPage[[2]int{s, (r - rg[0]) / mat.PageRows}] = true
				}
			}
		}
		for s, sh := range cur.c.shards {
			for k := range sh.rows[linkSpace].Pages() {
				if sh.rows[linkSpace].SamePage(prev.shards[s].rows[linkSpace], k) == dirtyPage[[2]int{s, k}] {
					t.Fatalf("update %d shard %d: Z page %d shared=%v, dirty=%v", i, s, k, !dirtyPage[[2]int{s, k}], dirtyPage[[2]int{s, k}])
				}
			}
			if sh.spaces[attrSpace] != prev.shards[s].spaces[attrSpace] {
				t.Fatalf("update %d shard %d: an edge update rebuilt the attribute cells", i, s)
			}
		}
		mu.Lock()
		if i%10 == 9 {
			kept = append(kept, cur)
		} else {
			kept[len(kept)-1] = cur // the newest cut is always the last
		}
		mu.Unlock()
	}
	close(stop)
	readers.Wait()
	for _, k := range kept {
		if !reflect.DeepEqual(cutAnswers(t, k.m, k.c), k.want) {
			t.Fatalf("the cut at version %d no longer answers as it did", k.m.Version)
		}
	}
	if st := eng.IndexStatus(); st.FullRebuilds != uint64(st.Shards) || st.IncrementalRefreshes != chain*uint64(st.Shards) {
		t.Fatalf("index status %+v: the chain must have been refreshed incrementally throughout", st)
	}

	// Sharded = unsharded = a fresh build = a restored engine. The flat
	// cells and full-probe inverted ones compare across engines whatever
	// their quantizers; default-probe answers only where the quantizer is
	// the same one, frozen (eng and its restored copy retrain: skip).
	m := eng.Model()
	fresh, err := New(m.Graph, m.Emb, m.Cfg, WithIndex(sharded))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chain.pane")
	if _, err := eng.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u += 7 {
		for _, mode := range allModes {
			nprobe := 0
			if modeCell[mode].layout == inverted {
				nprobe = 1 << 20
			}
			want := mustTop(t, fresh, true, u, 10, mode, nprobe)
			for label, other := range map[string]*Engine{"refreshed": eng, "unsharded": one, "restored": restored} {
				sameAnswers(t, label+" links "+mode, want, mustTop(t, other, true, u, 10, mode, nprobe))
			}
			sameAnswers(t, "attrs "+mode, mustTop(t, fresh, false, u, 6, mode, nprobe), mustTop(t, eng, false, u, 6, mode, nprobe))
		}
	}
}
