package engine

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pane/internal/graph"
	"pane/internal/store"
)

// fp16Engine builds an engine with the binary16 tiers enabled alongside
// every other backend.
func fp16Engine(t *testing.T, shards int) *Engine {
	t.Helper()
	g, emb, cfg := shardTestModel(t)
	eng, err := New(g, emb, cfg, WithIndex(IndexConfig{
		IVF: true, NList: 3, NProbe: 3, Quantize: true, FP16: true, Shards: shards,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestFP16ModesServeAndReport: fp16/ivffp16 modes answer from their
// backends with correct labels, degrade (fp16 → exact, ivffp16 → ivf →
// exact) when the tier is not built, and the status reports the flag.
func TestFP16ModesServeAndReport(t *testing.T) {
	eng := fp16Engine(t, 1)
	if st := eng.IndexStatus(); !st.FP16 {
		t.Fatalf("status fp16=%v", st.FP16)
	}
	for mode, backend := range map[string]string{
		ModeFP16: BackendFP16, ModeIVFFP16: BackendIVFFP16,
	} {
		ans, err := eng.TopLinks(0, 3, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Backend != backend {
			t.Fatalf("mode %q answered by %q", mode, ans.Backend)
		}
		ans, err = eng.TopAttrs(0, 3, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Backend != backend {
			t.Fatalf("attr mode %q answered by %q", mode, ans.Backend)
		}
	}
	// An exact-only engine degrades both fp16 modes to exact.
	g, emb, cfg := shardTestModel(t)
	plain, err := New(g, emb, cfg, WithIndex(IndexConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{ModeFP16, ModeIVFFP16} {
		ans, err := plain.TopLinks(0, 3, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Backend != BackendExact {
			t.Fatalf("exact-only engine: mode %q answered by %q", mode, ans.Backend)
		}
	}
	// An IVF engine without the fp16 tier degrades ivffp16 to ivf.
	ivfOnly, err := New(g, emb, cfg, WithIndex(IndexConfig{IVF: true, NList: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if ans, _ := ivfOnly.TopLinks(0, 3, ModeIVFFP16, 0); ans.Backend != BackendIVF {
		t.Fatalf("ivf-only engine: ivffp16 answered by %q", ans.Backend)
	}
}

// TestShardedFP16BitForBitIdentical: fp16 answers through S shards equal
// single-shard fp16 EXACTLY — per-element encoding makes every score
// final and shard-invariant — for links and attributes.
func TestShardedFP16BitForBitIdentical(t *testing.T) {
	g, emb, cfg := shardTestModel(t)
	newEng := func(shards int) *Engine {
		eng, err := New(g, emb, cfg, WithIndex(IndexConfig{
			IVF: true, NList: 3, NProbe: 3, FP16: true, Shards: shards,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	base := newEng(1)
	for _, s := range []int{2, 3, 7} {
		eng := newEng(s)
		for u := 0; u < g.N; u += 5 {
			want, err := base.TopLinks(u, 10, ModeFP16, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.TopLinks(u, 10, ModeFP16, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Backend != BackendFP16 {
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
			wantA, err := base.TopAttrs(u, 5, ModeFP16, 0)
			if err != nil {
				t.Fatal(err)
			}
			gotA, err := eng.TopAttrs(u, 5, ModeFP16, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantA.Results {
				if gotA.Results[i] != wantA.Results[i] {
					t.Fatalf("shards=%d attrs u=%d rank=%d: %v != %v", s, u, i, gotA.Results[i], wantA.Results[i])
				}
			}
		}
	}
}

// TestFP16SnapshotRestoreRoundTrip: an fp16 engine snapshots a format-5
// bundle carrying the binary16 payload; the restored engine consumes the
// payload (same version), serves identical fp16 answers, and a second
// snapshot reproduces the codes exactly — per-element encoding makes
// restored and recomputed tiers interchangeable.
func TestFP16SnapshotRestoreRoundTrip(t *testing.T) {
	eng := fp16Engine(t, 3)
	path := filepath.Join(t.TempDir(), "fp16.pane")
	if _, err := eng.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	b, err := store.LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Index == nil || !b.Index.FP16 {
		t.Fatal("bundle did not record the fp16 flag")
	}
	if b.Half == nil {
		t.Fatal("bundle did not carry the fp16 payload")
	}
	m := eng.Model()
	if b.Half.Links.Rows != m.Nodes() || b.Half.Attrs.Rows != m.Attrs() {
		t.Fatalf("payload shape %dx? / %dx?", b.Half.Links.Rows, b.Half.Attrs.Rows)
	}
	restored, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.restored.Load() == nil {
		t.Fatal("restored engine dropped the payload before building")
	}
	st := restored.IndexStatus()
	if !st.FP16 || st.Shards != 3 {
		t.Fatalf("restored status fp16=%v shards=%d", st.FP16, st.Shards)
	}
	for u := 0; u < m.Nodes(); u += 11 {
		want, err := eng.TopLinks(u, 5, ModeFP16, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.TopLinks(u, 5, ModeFP16, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Backend != BackendFP16 || len(got.Results) != len(want.Results) {
			t.Fatalf("restored u=%d: backend %q, %d results", u, got.Backend, len(got.Results))
		}
		for i := range want.Results {
			if got.Results[i] != want.Results[i] {
				t.Fatalf("restored u=%d rank=%d: %v != %v", u, i, got.Results[i], want.Results[i])
			}
		}
	}
	// Re-snapshotting the restored engine reproduces the payload.
	path2 := filepath.Join(t.TempDir(), "fp16b.pane")
	if _, err := restored.Snapshot(path2); err != nil {
		t.Fatal(err)
	}
	b2, err := store.LoadBundleFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Half == nil {
		t.Fatal("re-snapshot dropped the payload")
	}
	for i, c := range b.Half.Links.Codes {
		if b2.Half.Links.Codes[i] != c {
			t.Fatalf("link code %d differs after round trip", i)
		}
	}
	for i, c := range b.Half.Attrs.Codes {
		if b2.Half.Attrs.Codes[i] != c {
			t.Fatalf("attr code %d differs after round trip", i)
		}
	}
	// An update invalidates the payload (the model moved past it) but
	// the rebuilt fp16 tier keeps serving at the new version.
	if _, err := restored.ApplyEdges(eng.Model().Graph.Edges()[:1]); err != nil {
		t.Fatal(err)
	}
	if restored.restored.Load() != nil {
		t.Fatal("stale payload survived an update")
	}
	restored.WaitForIndex()
	ans, err := restored.TopLinks(0, 3, ModeFP16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Backend != BackendFP16 || ans.Version != 2 {
		t.Fatalf("post-update fp16: backend %q version %d", ans.Backend, ans.Version)
	}
}

// TestFP16IncrementalRefreshMatchesFullRebuild: an engine whose fp16 tier
// caught up through incremental refresh must answer fp16/ivffp16 queries
// bit-identically to a fresh build around the same model — the
// engine-level check that FP16.Refresh and IVFFP16.Refresh reproduce a
// full re-encode exactly.
func TestFP16IncrementalRefreshMatchesFullRebuild(t *testing.T) {
	g, emb, cfg := shardTestModel(t)
	idx := WithIndex(IndexConfig{IVF: true, NList: 3, NProbe: 3, FP16: true, Shards: 2})
	incr, err := New(g, emb, cfg, idx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := incr.ApplyEdges(g.Edges()[:2]); err != nil {
		t.Fatal(err)
	}
	incr.WaitForIndex()
	m := incr.Model()
	full, err := New(m.Graph, m.Emb, m.Cfg, idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{ModeFP16, ModeIVFFP16} {
		for u := 0; u < g.N; u += 7 {
			want, err := full.TopLinks(u, 8, mode, 1000)
			if err != nil {
				t.Fatal(err)
			}
			got, err := incr.TopLinks(u, 8, mode, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if got.Backend != want.Backend || got.Backend != mode {
				t.Fatalf("mode %q u=%d: backend %q vs %q", mode, u, got.Backend, want.Backend)
			}
			sameAnswers(t, mode, want, got)
		}
	}
}

// TestCertifiedFP16BundleUnchanged pins the bundle bytes of a fixed-seed
// model with every tier built — two shards, the int8 and binary16
// payloads included — as built, after an edge update refreshed the index,
// and re-snapshotted from a restored engine. The binary16 cells scan the
// float64 cells' int8 pages but persist their halves alone, so the bytes
// are the ones the format had before they did (amd64 and -tags noasm
// alike).
func TestCertifiedFP16BundleUnchanged(t *testing.T) {
	const built, refreshed = "07b78da9ad6167d75830c82b54f7edc0ea90d45f2f8a1f8ddbe43c4992e9dd96",
		"0934b839084fc24523f4216649a23a56a9e1699cf23374b066b9f81261453942"
	g, emb, cfg := shardTestModel(t)
	eng, err := New(g, emb, cfg, WithIndex(IndexConfig{IVF: true, NList: 3, NProbe: 3, Quantize: true, FP16: true, Shards: 2}))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(e *Engine, want string) string {
		t.Helper()
		e.WaitForIndex()
		path := filepath.Join(t.TempDir(), "model.pane")
		if _, err := e.Snapshot(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
			t.Fatalf("bundle sha256 %s, want %s", got, want)
		}
		return path
	}
	restored, err := Open(snapshot(eng, built))
	if err != nil {
		t.Fatal(err)
	}
	snapshot(restored, built)
	if _, err := eng.ApplyEdges([]graph.Edge{{Src: 2, Dst: 3}, {Src: 5, Dst: 90}}); err != nil {
		t.Fatal(err)
	}
	snapshot(eng, refreshed)
}
