package engine

import (
	"path/filepath"
	"testing"

	"pane/internal/index"
	"pane/internal/store"
)

// quantEngine builds an engine with every backend tier enabled.
func quantEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	g, emb, cfg := shardTestModel(t)
	eng, err := New(g, emb, cfg, WithIndex(IndexConfig{
		IVF: true, NList: 3, NProbe: 3, Quantize: true, Shards: shards,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestQuantizedModesServeAndReport: sq8/ivfsq modes answer from their
// backends with correct labels, degrade to exact when the tier is not
// built, and the status reports the quantized configuration.
func TestQuantizedModesServeAndReport(t *testing.T) {
	eng := quantEngine(t, 1)
	st := eng.IndexStatus()
	if !st.Quantize || st.Rerank != index.DefaultRerank {
		t.Fatalf("status quantize=%v rerank=%d", st.Quantize, st.Rerank)
	}
	for mode, backend := range map[string]string{
		ModeExact: BackendExact, ModeIVF: BackendIVF,
		ModeSQ8: BackendSQ8, ModeIVFSQ: BackendIVFSQ,
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
	// An exact-only engine degrades the quantized modes to exact.
	g, emb, cfg := shardTestModel(t)
	plain, err := New(g, emb, cfg, WithIndex(IndexConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{ModeSQ8, ModeIVFSQ} {
		ans, err := plain.TopLinks(0, 3, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Backend != BackendExact {
			t.Fatalf("unquantized engine: mode %q answered by %q", mode, ans.Backend)
		}
	}
	// An IVF engine without quantization degrades ivfsq to ivf.
	ivfOnly, err := New(g, emb, cfg, WithIndex(IndexConfig{IVF: true, NList: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if ans, _ := ivfOnly.TopLinks(0, 3, ModeIVFSQ, 0); ans.Backend != BackendIVF {
		t.Fatalf("ivf-only engine: ivfsq answered by %q", ans.Backend)
	}
}

// TestShardedQuantizedBitForBitIdentical is satellite property (c) at the
// engine layer: sq8 answers through S shards equal single-shard sq8
// EXACTLY — the survivor cut is global — for links and attributes, via
// both the single-query path and the batch path.
func TestShardedQuantizedBitForBitIdentical(t *testing.T) {
	g, emb, cfg := shardTestModel(t)
	newEng := func(shards int) *Engine {
		eng, err := New(g, emb, cfg, WithIndex(IndexConfig{
			IVF: true, NList: 3, NProbe: 3, Quantize: true, Shards: shards,
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
			want, err := base.TopLinks(u, 10, ModeSQ8, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.TopLinks(u, 10, ModeSQ8, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Backend != BackendSQ8 {
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
			wantA, err := base.TopAttrs(u, 5, ModeSQ8, 0)
			if err != nil {
				t.Fatal(err)
			}
			gotA, err := eng.TopAttrs(u, 5, ModeSQ8, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantA.Results {
				if gotA.Results[i] != wantA.Results[i] {
					t.Fatalf("shards=%d attrs u=%d rank=%d: %v != %v", s, u, i, gotA.Results[i], wantA.Results[i])
				}
			}
		}
		// The batch path must agree with the single-query
		// path on quantized modes too (same two-phase merge).
		k := 10
		qs := []Query{
			{Op: OpTopLinks, Src: 0, K: &k, Mode: ModeSQ8},
			{Op: OpTopAttrs, Node: 3, K: &k, Mode: ModeSQ8},
			{Op: OpTopLinks, Src: 5, K: &k, Mode: ModeIVFSQ, NProbe: 1000},
		}
		gotRes, _ := eng.Execute(qs)
		for i, q := range qs {
			if gotRes[i].Err != "" {
				t.Fatalf("batch query %d failed: %s", i, gotRes[i].Err)
			}
			var single TopKAnswer
			var err error
			if q.Op == OpTopAttrs {
				single, err = eng.TopAttrs(q.Node, *q.K, q.Mode, q.NProbe)
			} else {
				single, err = eng.TopLinks(q.Src, *q.K, q.Mode, q.NProbe)
			}
			if err != nil {
				t.Fatal(err)
			}
			if gotRes[i].Backend != single.Backend || len(gotRes[i].Top) != len(single.Results) {
				t.Fatalf("batch query %d: backend %q len %d vs single %q len %d",
					i, gotRes[i].Backend, len(gotRes[i].Top), single.Backend, len(single.Results))
			}
			for j := range single.Results {
				if gotRes[i].Top[j] != single.Results[j] {
					t.Fatalf("batch query %d rank %d: %v != %v", i, j, gotRes[i].Top[j], single.Results[j])
				}
			}
		}
	}
}

// TestQuantizedSnapshotRestoreRoundTrip: a quantized engine snapshots a
// format-4 bundle carrying the SQ8 payload; the restored engine consumes
// the payload (same version), serves identical sq8 answers, and a second
// snapshot reproduces the payload byte-for-values — per-row quantization
// makes restored and recomputed encodings interchangeable.
func TestQuantizedSnapshotRestoreRoundTrip(t *testing.T) {
	eng := quantEngine(t, 3)
	path := filepath.Join(t.TempDir(), "quant.pane")
	if _, err := eng.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	b, err := store.LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Index == nil || !b.Index.Quantize {
		t.Fatal("bundle did not record the quantize flag")
	}
	if b.Quant == nil {
		t.Fatal("bundle did not carry the quantized payload")
	}
	m := eng.Model()
	if b.Quant.Links.Rows != m.Nodes() || b.Quant.Attrs.Rows != m.Attrs() {
		t.Fatalf("payload shape %dx? / %dx?", b.Quant.Links.Rows, b.Quant.Attrs.Rows)
	}
	restored, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.restored.Load() == nil {
		t.Fatal("restored engine dropped the payload before building")
	}
	st := restored.IndexStatus()
	if !st.Quantize || st.Shards != 3 {
		t.Fatalf("restored status quantize=%v shards=%d", st.Quantize, st.Shards)
	}
	for u := 0; u < m.Nodes(); u += 11 {
		want, err := eng.TopLinks(u, 5, ModeSQ8, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.TopLinks(u, 5, ModeSQ8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Backend != BackendSQ8 || len(got.Results) != len(want.Results) {
			t.Fatalf("restored u=%d: backend %q, %d results", u, got.Backend, len(got.Results))
		}
		for i := range want.Results {
			if got.Results[i] != want.Results[i] {
				t.Fatalf("restored u=%d rank=%d: %v != %v", u, i, got.Results[i], want.Results[i])
			}
		}
	}
	// Re-snapshotting the restored engine reproduces the payload.
	path2 := filepath.Join(t.TempDir(), "quant2.pane")
	if _, err := restored.Snapshot(path2); err != nil {
		t.Fatal(err)
	}
	b2, err := store.LoadBundleFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Quant == nil {
		t.Fatal("re-snapshot dropped the payload")
	}
	for i, c := range b.Quant.Links.Codes {
		if b2.Quant.Links.Codes[i] != c {
			t.Fatalf("link code %d differs after round trip", i)
		}
	}
	// An update invalidates the payload (the model moved past it) but
	// the rebuilt quantized tier keeps serving at the new version.
	if _, err := restored.ApplyEdges(eng.Model().Graph.Edges()[:1]); err != nil {
		t.Fatal(err)
	}
	if restored.restored.Load() != nil {
		t.Fatal("stale payload survived an update")
	}
	restored.WaitForIndex()
	ans, err := restored.TopLinks(0, 3, ModeSQ8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Backend != BackendSQ8 || ans.Version != 2 {
		t.Fatalf("post-update sq8: backend %q version %d", ans.Backend, ans.Version)
	}
}
