package engine

import (
	"testing"

	"pane/internal/index"
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
