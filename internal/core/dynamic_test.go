package core

import (
	"math/rand"
	"testing"

	"pane/internal/graph"
)

// perturb returns g with a handful of extra random edges and attribute
// associations — a small graph delta.
func perturb(g *graph.Graph, extraEdges, extraAttrs int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := 0; u < g.N; u++ {
		for _, v := range g.OutNeighbors(u) {
			edges = append(edges, graph.Edge{Src: u, Dst: int(v)})
		}
	}
	for i := 0; i < extraEdges; i++ {
		edges = append(edges, graph.Edge{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)})
	}
	var attrs []graph.AttrEntry
	for v := 0; v < g.N; v++ {
		cols, vals := g.NodeAttrs(v)
		for k, c := range cols {
			attrs = append(attrs, graph.AttrEntry{Node: v, Attr: int(c), Weight: vals[k]})
		}
	}
	for i := 0; i < extraAttrs; i++ {
		attrs = append(attrs, graph.AttrEntry{Node: rng.Intn(g.N), Attr: rng.Intn(g.D), Weight: 1})
	}
	out, err := graph.New(g.N, g.D, edges, attrs, g.Labels)
	if err != nil {
		panic(err)
	}
	return out
}

func TestRefineFromDoesNotMutatePrev(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := testGraph(rng, 30, 8)
	cfg := smallConfig()
	prev, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := prev.Xf.Dense()
	f, b := AffinityFromGraph(g, cfg.Alpha, cfg.Iterations(), 1)
	RefineFrom(prev, f, b, cfg, 2, 1)
	if prev.Xf.Dense().MaxAbsDiff(snapshot) != 0 {
		t.Fatal("RefineFrom mutated the previous embedding")
	}
}

func TestRefineFromLowersObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := testGraph(rng, 40, 10)
	cfg := smallConfig()
	cfg.CCDIters = 1
	prev, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// New targets from a perturbed graph.
	g2 := perturb(g, 15, 10, 3)
	f2, b2 := AffinityFromGraph(g2, cfg.Alpha, cfg.Iterations(), 1)
	before := Objective(prev, f2, b2)
	warm := RefineFrom(prev, f2, b2, cfg, 2, 1)
	after := Objective(warm, f2, b2)
	if after >= before {
		t.Fatalf("warm refinement did not lower the objective: %v -> %v", before, after)
	}
}

func TestUpdateEmbeddingCloseToRetrain(t *testing.T) {
	// After a small delta, 2 warm sweeps must land within a modest factor
	// of a full cold retrain's objective — the value proposition of the
	// dynamic extension.
	rng := rand.New(rand.NewSource(4))
	g := testGraph(rng, 50, 10)
	cfg := smallConfig()
	prev, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2 := perturb(g, 10, 8, 5)
	f2, b2 := AffinityFromGraph(g2, cfg.Alpha, cfg.Iterations(), 1)
	warm := RefineFrom(prev, f2, b2, cfg, 2, 1)
	cold, err := PANE(g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmObj := Objective(warm, f2, b2)
	coldObj := Objective(cold, f2, b2)
	if warmObj > 1.3*coldObj {
		t.Fatalf("warm objective %v far above cold retrain %v", warmObj, coldObj)
	}
}

func TestUpdateEmbeddingBeatsStalePredictions(t *testing.T) {
	// The warm-updated embedding must fit the new affinity better than
	// the stale embedding does.
	rng := rand.New(rand.NewSource(6))
	g := testGraph(rng, 40, 8)
	cfg := smallConfig()
	prev, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2 := perturb(g, 20, 15, 7)
	f2, b2 := AffinityFromGraph(g2, cfg.Alpha, cfg.Iterations(), 1)
	warm := RefineFrom(prev, f2, b2, cfg, 2, 1)
	if Objective(warm, f2, b2) >= Objective(prev, f2, b2) {
		t.Fatal("update did not improve fit to the new graph")
	}
}

func TestRefineFromParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := testGraph(rng, 30, 7)
	cfg := smallConfig()
	prev, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, b := AffinityFromGraph(g, cfg.Alpha, cfg.Iterations(), 1)
	serial := RefineFrom(prev, f, b, cfg, 3, 1)
	par := RefineFrom(prev, f, b, cfg, 3, 4)
	if serial.Xf.Dense().MaxAbsDiff(par.Xf.Dense()) > 1e-12 || serial.Y.MaxAbsDiff(par.Y) > 1e-12 {
		t.Fatal("parallel warm refinement deviates from serial")
	}
}
