package pane_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/eval"
	"pane/internal/graph"
	"pane/internal/mat"
	"pane/internal/store"
)

// TestPipelineFilesToPredictions exercises the full user journey:
// generate a dataset → write it to text files → load it back → train
// PANE → evaluate link prediction → persist embeddings in binary form →
// reload → identical predictions.
func TestPipelineFilesToPredictions(t *testing.T) {
	dir := t.TempDir()
	g0, err := datagen.Generate(datagen.Config{
		Name: "pipe", N: 300, AvgOutDeg: 5, D: 30, AttrsPer: 3,
		Communities: 3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Write text files.
	paths := map[string]func(f *os.File) error{
		"g.edges":  func(f *os.File) error { return g0.WriteEdges(f) },
		"g.attrs":  func(f *os.File) error { return g0.WriteAttrs(f) },
		"g.labels": func(f *os.File) error { return g0.WriteLabels(f) },
	}
	for name, write := range paths {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	// Load back.
	g, err := graph.LoadFiles(
		filepath.Join(dir, "g.edges"), filepath.Join(dir, "g.attrs"), filepath.Join(dir, "g.labels"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != g0.N || g.M() != g0.M() || g.NNZAttr() != g0.NNZAttr() {
		t.Fatalf("file round trip changed the graph: %d/%d/%d vs %d/%d/%d",
			g.N, g.M(), g.NNZAttr(), g0.N, g0.M(), g0.NNZAttr())
	}
	// Train on a link split and evaluate.
	rng := rand.New(rand.NewSource(1))
	sp := eval.SplitLinks(g, 0.3, rng)
	cfg := core.Config{K: 32, Alpha: 0.5, Eps: 0.05, Threads: 2, Seed: 1}
	emb, err := core.ParallelPANE(sp.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scorer := core.NewLinkScorer(emb)
	auc, ap := sp.Evaluate(scorer.Directed)
	if auc < 0.6 || ap < 0.55 {
		t.Fatalf("pipeline AUC=%v AP=%v below sanity floor", auc, ap)
	}
	// Persist and reload the embedding; predictions must be identical.
	if err := store.SaveDenseFile(filepath.Join(dir, "xf.bin"), emb.Xf.Dense()); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveDenseFile(filepath.Join(dir, "xb.bin"), emb.Xb.Dense()); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveDenseFile(filepath.Join(dir, "y.bin"), emb.Y); err != nil {
		t.Fatal(err)
	}
	xf, err := store.LoadDenseFile(filepath.Join(dir, "xf.bin"))
	if err != nil {
		t.Fatal(err)
	}
	xb, err := store.LoadDenseFile(filepath.Join(dir, "xb.bin"))
	if err != nil {
		t.Fatal(err)
	}
	y, err := store.LoadDenseFile(filepath.Join(dir, "y.bin"))
	if err != nil {
		t.Fatal(err)
	}
	reloaded := &core.Embedding{Xf: mat.Page(xf), Xb: mat.Page(xb), Y: y}
	rs := core.NewLinkScorer(reloaded)
	for i := 0; i < 50; i++ {
		u, v := rng.Intn(g.N), rng.Intn(g.N)
		if rs.Directed(u, v) != scorer.Directed(u, v) {
			t.Fatal("reloaded embedding predicts differently")
		}
		if reloaded.AttrScore(u, rng.Intn(g.D)) != emb.AttrScore(u, rng.Intn(g.D)) {
			// Different attr drawn — rerun with same value.
			r := rng.Intn(g.D)
			if reloaded.AttrScore(u, r) != emb.AttrScore(u, r) {
				t.Fatal("reloaded attribute scores differ")
			}
		}
	}
}

// TestPipelineWeightedGraph runs the end-to-end flow on a weighted graph,
// covering the NewWeighted path through APMI and the solver.
func TestPipelineWeightedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, d := 200, 20
	var wedges []graph.WeightedEdge
	for v := 0; v < n; v++ {
		for e := 0; e < 4; e++ {
			wedges = append(wedges, graph.WeightedEdge{
				Src: v, Dst: rng.Intn(n), Weight: 0.5 + 2*rng.Float64(),
			})
		}
	}
	var attrs []graph.AttrEntry
	for v := 0; v < n; v++ {
		attrs = append(attrs, graph.AttrEntry{Node: v, Attr: v % d, Weight: 1})
	}
	g, err := graph.NewWeighted(n, d, wedges, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := core.PANE(g, core.Config{K: 16, Alpha: 0.5, Eps: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every node's own attribute should be among its top-5 scored.
	hits := 0
	for v := 0; v < n; v++ {
		for _, s := range emb.TopKAttrs(v, 5, nil) {
			if s.ID == v%d {
				hits++
				break
			}
		}
	}
	if frac := float64(hits) / float64(n); frac < 0.7 {
		t.Fatalf("own-attribute top-5 hit rate %v on weighted graph", frac)
	}
}
