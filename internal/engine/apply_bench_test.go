package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/graph"
)

// fixtureModel is the end-to-end benchmark's model (bench/: n = 30,000,
// average out-degree 8, d = 100, K = 128), trained once per test binary.
// Trained, not random: refining a random embedding row by row pulls the
// refined rows into a few inverted lists (one held half a shard's rows
// after 2,400 writes), so what a refresh copies, and a benchmark's ns/op,
// grew with b.N; on the trained model list sizes hold still.
var fixtureModel = sync.OnceValues(func() (fixture, error) {
	g, err := datagen.Generate(datagen.Config{
		Name: "bench", N: 30000, AvgOutDeg: 8, D: 100, AttrsPer: 6, Communities: 50, Seed: 1,
	})
	if err != nil {
		return fixture{}, err
	}
	cfg := core.Config{K: 128, Alpha: 0.5, Eps: 0.25, Threads: 2, Seed: 1}
	emb, _, err := core.Train(g, cfg)
	return fixture{g, emb, cfg}, err
})

type fixture struct {
	g   *graph.Graph
	emb *core.Embedding
	cfg core.Config
}

// applyFixture wraps fixtureModel in an engine — without an index unless
// opts add one, so ApplyEdges is the ack path alone. The first update,
// which builds the retained affinity state in full, is applied here; next
// returns the 8-edge batches of the benchmark's writes.
func applyFixture(tb testing.TB, opts ...Option) (eng *Engine, next func() []graph.Edge) {
	tb.Helper()
	f, err := fixtureModel()
	if err != nil {
		tb.Fatal(err)
	}
	g, rng := f.g, rand.New(rand.NewSource(1))
	eng, err = New(g, f.emb, f.cfg, append([]Option{WithRefreshThreshold(1), WithAffinityThreshold(1)}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	next = func() []graph.Edge {
		edges := make([]graph.Edge, 8)
		for i := range edges {
			edges[i] = graph.Edge{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)}
		}
		return edges
	}
	if _, err := eng.ApplyEdges(next()); err != nil {
		tb.Fatal(err)
	}
	eng.WaitForIndex()
	return eng, next
}

// benchIndex is the end-to-end benchmark's index: all six cells, 2 shards.
var benchIndex = WithIndex(IndexConfig{IVF: true, Quantize: true, FP16: true, Shards: 2})

// BenchmarkApplyEdges times one 8-edge update through the whole ack path
// at the benchmark's shape: graph merge, affinity patch, restricted CCD,
// scorer, publish.
func BenchmarkApplyEdges(b *testing.B) {
	eng, next := applyFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ApplyEdges(next()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestApplyEdgesAllocationBound is the O(Δ) gate: an 8-edge update may
// allocate what its delta and one pointer per page cost, never a copy of
// a matrix. Whole-matrix copies made it 44 MB, and merging pages of P and
// Pᵀ beside the adjacency's 734 KB (515 KB without, on amd64); the bound
// is 640 KiB.
func TestApplyEdgesAllocationBound(t *testing.T) {
	eng, next := applyFixture(t)
	const updates = 20
	batches := make([][]graph.Edge, updates)
	for i := range batches {
		batches[i] = next()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, edges := range batches {
		if _, err := eng.ApplyEdges(edges); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / updates; per > 640<<10 {
		t.Fatalf("ApplyEdges allocates %d bytes per 8-edge update, over the 640 KiB bound", per)
	} else {
		t.Logf("ApplyEdges allocates %d bytes per 8-edge update", per)
	}
}

// BenchmarkRefreshEdges times one 8-edge update through the ack path AND
// the index refresh it wakes, at the benchmark's shape with all six cells
// in 2 shards: what a write costs the machine, not only its caller.
func BenchmarkRefreshEdges(b *testing.B) {
	eng, next := applyFixture(b, benchIndex)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ApplyEdges(next()); err != nil {
			b.Fatal(err)
		}
		eng.WaitForIndex()
	}
}

// TestRefreshEdgesAllocationBound is the O(Δ) gate for the index side: an
// 8-edge update's refresh of both shards may allocate its dirty pages,
// the ids and codes of the lists its dirty rows left or joined, the code
// pages its dirty rows are on, and one pointer per page — never a copy of
// a candidate block or of a cell's codes (24.8 MB when it cloned them),
// nor float64 copies of the lists (3.8 MB per update with them). On a
// 2-core amd64 host an update allocates 1.31 MB and its refresh copies
// 679 KB by its books (1.96 MB and 1.24 MB when every list a dirty row
// was in was re-made); each bound is that figure plus 25 %. It also pins
// the refresh's books: every dirty row is encoded once per encoding a
// layout holds — the int8 one its float64 and int8 cells share, and
// binary16 — and nothing else is.
func TestRefreshEdgesAllocationBound(t *testing.T) {
	eng, next := applyFixture(t, benchIndex)
	const updates = 20
	batches := make([][]graph.Edge, updates)
	dirty := 0
	for i, g := 0, eng.Model().Graph; i < updates; i++ {
		batches[i] = next()
		var eff graph.Effect
		var err error
		if g, eff, err = g.Apply(batches[i], nil); err != nil {
			t.Fatal(err)
		}
		dirty += len(eff.Nodes)
	}
	encoded := func() (n uint64) {
		for l := range eng.met.rowsEncoded {
			for _, c := range eng.met.rowsEncoded[l] {
				n += c.Value()
			}
		}
		return n
	}
	rows0, bytes0 := encoded(), eng.met.bytesCopied.Value()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, edges := range batches {
		if _, err := eng.ApplyEdges(edges); err != nil {
			t.Fatal(err)
		}
		eng.WaitForIndex()
	}
	runtime.ReadMemStats(&after)
	per, copied := (after.TotalAlloc-before.TotalAlloc)/updates, (eng.met.bytesCopied.Value()-bytes0)/updates
	t.Logf("update + refresh allocates %d bytes per 8-edge update, the refresh copies %d", per, copied)
	if per > 1_640_000 {
		t.Fatalf("update + refresh allocates %d bytes per 8-edge update, over the 1.64 MB bound", per)
	}
	if copied > 850_000 {
		t.Fatalf("the refresh copies %d bytes per 8-edge update, over the 850 KB bound", copied)
	}
	if got, want := encoded()-rows0, uint64(dirty*2*2); got != want {
		t.Fatalf("refresh encoded %d rows for %d dirty rows, want %d (2 encodings x 2 layouts)", got, dirty, want)
	}
}
