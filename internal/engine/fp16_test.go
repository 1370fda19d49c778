package engine

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pane/internal/graph"
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
// model with every tier built in two shards, as built, after an edge
// update refreshed the index, and re-snapshotted from a restored engine.
// A bundle persists the model and the index configuration, never a cell's
// codes, so the bytes are the same whatever the cells encode (amd64 and
// -tags noasm alike).
func TestCertifiedFP16BundleUnchanged(t *testing.T) {
	const built, refreshed = "efd4737e245887292e2d030e997c470c2bb80a948bf223686ade5dcac0020260",
		"883d17e75f470525d37730ad66812261a471a309db7f56f75cb39c7ed5598797"
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
