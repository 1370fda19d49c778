package engine

import (
	"path/filepath"
	"testing"

	"pane/internal/graph"
)

func indexedEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	opts = append([]Option{WithIndex(IndexConfig{IVF: true, NList: 2, NProbe: 2})}, opts...)
	return trainTestEngine(t, opts...)
}

func TestIndexedTopLinksMatchesScan(t *testing.T) {
	eng := indexedEngine(t)
	m := eng.Model()
	for u := 0; u < m.Nodes(); u++ {
		want := m.Scorer.TopKTargets(u, 3, nil)
		ans, err := eng.TopLinks(u, 3, ModeExact, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Backend != BackendExact || ans.Version != 1 {
			t.Fatalf("u=%d: backend %q version %d", u, ans.Backend, ans.Version)
		}
		if len(ans.Results) != len(want) {
			t.Fatalf("u=%d: %d results, want %d", u, len(ans.Results), len(want))
		}
		// The indexed path computes (Xf[u]·G)·Xb[v] in a different
		// association order than the scan, so scores match to tolerance
		// and the ranked ids must agree wherever scores are separated.
		for i := range want {
			if d := ans.Results[i].Score - want[i].Score; d > 1e-9 || d < -1e-9 {
				t.Fatalf("u=%d rank %d: score %v vs scan %v", u, i, ans.Results[i], want[i])
			}
		}
	}
}

func TestIndexedTopAttrsMatchesScan(t *testing.T) {
	eng := indexedEngine(t)
	m := eng.Model()
	for v := 0; v < m.Nodes(); v++ {
		want := m.Emb.TopKAttrs(v, 2, nil)
		ans, err := eng.TopAttrs(v, 2, ModeExact, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Backend != BackendExact {
			t.Fatalf("backend %q", ans.Backend)
		}
		for i := range want {
			if d := ans.Results[i].Score - want[i].Score; d > 1e-9 || d < -1e-9 {
				t.Fatalf("v=%d rank %d: score %v vs scan %v", v, i, ans.Results[i], want[i])
			}
		}
	}
}

func TestTopKValidation(t *testing.T) {
	eng := indexedEngine(t)
	cases := []struct {
		name string
		run  func() error
	}{
		{"k=0", func() error { _, err := eng.TopLinks(0, 0, "", 0); return err }},
		{"k=-5", func() error { _, err := eng.TopAttrs(0, -5, "", 0); return err }},
		{"bad mode", func() error { _, err := eng.TopLinks(0, 3, "approx", 0); return err }},
		{"negative nprobe", func() error { _, err := eng.TopLinks(0, 3, ModeIVF, -1); return err }},
		{"src out of range", func() error { _, err := eng.TopLinks(99, 3, "", 0); return err }},
		{"node out of range", func() error { _, err := eng.TopAttrs(-1, 3, "", 0); return err }},
	}
	for _, c := range cases {
		if err := c.run(); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
	if eng.Version() != 1 {
		t.Fatal("validation errors must not touch state")
	}
}

// TestManualRebuildLifecycle walks the full fallback protocol: fresh
// index at v1, update to v2 with the index pinned at v1 (scan fallback at
// the NEW version — never a stale index), then explicit rebuild back to
// indexed serving.
func TestManualRebuildLifecycle(t *testing.T) {
	eng := indexedEngine(t, WithManualIndexRebuild())
	if st := eng.IndexStatus(); !st.Enabled || st.Version != 1 || !st.IVF {
		t.Fatalf("fresh status %+v", st)
	}
	ans, err := eng.TopLinks(0, 3, ModeIVF, 0)
	if err != nil || ans.Backend != BackendIVF || ans.Version != 1 {
		t.Fatalf("fresh ivf answer %+v err %v", ans, err)
	}

	if _, err := eng.ApplyEdges([]graph.Edge{{Src: 0, Dst: 5}}); err != nil {
		t.Fatal(err)
	}
	// The update's delta is pending, but no worker runs it: WaitForIndex
	// returns at once and leaves the index where it was.
	eng.WaitForIndex()
	for _, mode := range []string{ModeExact, ModeIVF} {
		ans, err := eng.TopLinks(0, 3, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Backend != BackendScan || ans.Version != 2 {
			t.Fatalf("mid-rebuild mode=%s: backend %q version %d, want scan at 2", mode, ans.Backend, ans.Version)
		}
	}
	if st := eng.IndexStatus(); st.Version != 1 {
		t.Fatalf("mid-rebuild status %+v", st)
	}

	eng.RebuildIndex()
	ans, err = eng.TopLinks(0, 3, ModeIVF, 0)
	if err != nil || ans.Backend != BackendIVF || ans.Version != 2 {
		t.Fatalf("post-rebuild answer %+v err %v", ans, err)
	}
	// Redundant rebuilds are no-ops.
	eng.RebuildIndex()
	if st := eng.IndexStatus(); st.Version != 2 {
		t.Fatalf("post-noop status %+v", st)
	}
}

func TestAsyncRebuildCatchesUp(t *testing.T) {
	eng := indexedEngine(t)
	for i := 0; i < 3; i++ {
		if _, err := eng.ApplyEdges([]graph.Edge{{Src: i, Dst: 5 - i}}); err != nil {
			t.Fatal(err)
		}
	}
	eng.WaitForIndex()
	if st := eng.IndexStatus(); st.Version != eng.Version() {
		t.Fatalf("index at %d, model at %d", st.Version, eng.Version())
	}
	ans, err := eng.TopLinks(0, 3, ModeExact, 0)
	if err != nil || ans.Backend != BackendExact || ans.Version != 4 {
		t.Fatalf("post-catchup answer %+v err %v", ans, err)
	}
}

// TestExactIVFFullProbeAgreeOnModel: with nprobe = nlist the two engine
// backends must agree bit for bit — both search the same transformed
// candidate matrix.
func TestExactIVFFullProbeAgreeOnModel(t *testing.T) {
	eng := indexedEngine(t)
	m := eng.Model()
	for u := 0; u < m.Nodes(); u++ {
		ex, err := eng.TopLinks(u, 4, ModeExact, 0)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := eng.TopLinks(u, 4, ModeIVF, 2) // nprobe = nlist
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Results) != len(iv.Results) {
			t.Fatalf("u=%d: %d vs %d results", u, len(ex.Results), len(iv.Results))
		}
		for i := range ex.Results {
			if ex.Results[i] != iv.Results[i] {
				t.Fatalf("u=%d rank %d: exact %v != full-probe ivf %v", u, i, ex.Results[i], iv.Results[i])
			}
		}
	}
}

func TestIndexConfigSurvivesSnapshot(t *testing.T) {
	eng := trainTestEngine(t, WithIndex(IndexConfig{IVF: true, NList: 3, NProbe: 2, Seed: 9}))
	path := filepath.Join(t.TempDir(), "m.pane")
	if _, err := eng.Snapshot(path); err != nil {
		t.Fatal(err)
	}

	restored, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := restored.IndexStatus(); !st.Enabled || !st.IVF || st.NList != 3 || st.NProbe != 2 {
		t.Fatalf("restored status %+v", st)
	}
	// Identical data + identical recorded seed → identical IVF answers.
	a, err := eng.TopLinks(0, 3, ModeIVF, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.TopLinks(0, 3, ModeIVF, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("rank %d: live %v restored %v", i, a.Results[i], b.Results[i])
		}
	}

	// Caller options override the bundle: indexing can be turned off.
	plain, err := Open(path, WithoutIndex())
	if err != nil {
		t.Fatal(err)
	}
	if st := plain.IndexStatus(); st.Enabled {
		t.Fatalf("WithoutIndex ignored: %+v", st)
	}
	ans, err := plain.TopLinks(0, 3, ModeIVF, 0)
	if err != nil || ans.Backend != BackendScan {
		t.Fatalf("unindexed answer %+v err %v", ans, err)
	}
}

// TestWaitForIndexDuringUpdates calls WaitForIndex concurrently with a
// stream of updates — new rebuilds keep being scheduled while waiters
// block, which a plain WaitGroup would panic on (concurrent Add/Wait).
func TestWaitForIndexDuringUpdates(t *testing.T) {
	eng := indexedEngine(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			eng.WaitForIndex()
		}
	}()
	for i := 0; i < 6; i++ {
		if _, err := eng.ApplyEdges([]graph.Edge{{Src: i % 6, Dst: (i + 1) % 6}}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	eng.WaitForIndex()
	if st := eng.IndexStatus(); st.Version != eng.Version() {
		t.Fatalf("index at %d, model at %d", st.Version, eng.Version())
	}
}

func TestFallbackIndexOption(t *testing.T) {
	// No prior config: the fallback applies.
	eng := trainTestEngine(t, WithFallbackIndex(IndexConfig{IVF: true, NList: 2, NProbe: 2}))
	if st := eng.IndexStatus(); !st.Enabled || !st.IVF {
		t.Fatalf("fallback not applied: %+v", st)
	}
	// A bundle-recorded config wins over the fallback.
	path := filepath.Join(t.TempDir(), "m.pane")
	src := trainTestEngine(t, WithIndex(IndexConfig{IVF: false}))
	if _, err := src.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(path, WithFallbackIndex(IndexConfig{IVF: true}))
	if err != nil {
		t.Fatal(err)
	}
	if st := restored.IndexStatus(); !st.Enabled || st.IVF {
		t.Fatalf("bundle config overridden by fallback: %+v", st)
	}
}

func TestBatchInvalidKAndDefault(t *testing.T) {
	eng := indexedEngine(t)
	zero, neg := 0, -2
	results, _ := eng.Execute([]Query{
		{Op: OpTopLinks, Src: 0},           // K omitted → DefaultK, clamped to n-1
		{Op: OpTopLinks, Src: 0, K: &zero}, // explicit 0 → error
		{Op: OpTopAttrs, Node: 0, K: &neg}, // explicit negative → error
	})
	if results[0].Err != "" {
		t.Fatalf("omitted k failed: %s", results[0].Err)
	}
	if len(results[0].Top) != 5 { // 6 nodes minus self
		t.Fatalf("omitted k results %d, want 5", len(results[0].Top))
	}
	if results[0].Backend != BackendExact {
		t.Fatalf("batch backend %q", results[0].Backend)
	}
	for _, i := range []int{1, 2} {
		if results[i].Err == "" {
			t.Fatalf("result %d: invalid k accepted", i)
		}
		if results[i].Top != nil {
			t.Fatalf("result %d: carries results despite error", i)
		}
	}
}

func TestModelExecuteStaysScan(t *testing.T) {
	// Model.Execute (no engine) has no index to consult; it reports scan.
	eng := indexedEngine(t)
	res := eng.Model().Execute([]Query{{Op: OpTopLinks, Src: 0, K: kp(3)}})
	if res[0].Err != "" || res[0].Backend != BackendScan {
		t.Fatalf("model execute: %+v", res[0])
	}
}
