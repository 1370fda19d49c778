package graph

import (
	"math/rand"
	"slices"
	"testing"

	"pane/internal/mat"
	"pane/internal/sparse"
)

// randomGraph builds a random directed attributed graph; attribute weights
// are quarter-integers so additive merges are float-exact regardless of
// summation order.
func randomGraph(rng *rand.Rand, n, d int) *Graph {
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < 0.12 {
				edges = append(edges, Edge{Src: u, Dst: v})
			}
		}
	}
	var attrs []AttrEntry
	for v := 0; v < n; v++ {
		for r := 0; r < d; r++ {
			if rng.Float64() < 0.3 {
				attrs = append(attrs, AttrEntry{Node: v, Attr: r, Weight: float64(1+rng.Intn(16)) * 0.25})
			}
		}
	}
	g, err := New(n, d, edges, attrs, nil)
	if err != nil {
		panic(err)
	}
	return g
}

func densesEqual(a, b *mat.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if b.Data[i] != v {
			return false
		}
	}
	return true
}

func csrsEqual(a, b *sparse.CSR) bool {
	if a.R != b.R || a.C != b.C || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.R; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		if !slices.Equal(ac, bc) || !slices.Equal(av, bv) {
			return false
		}
	}
	return true
}

// TestWithUpdatesMergeMatchesRebuild checks that the CSR-merge fast path
// of WithUpdates produces the same graph as rebuilding from entry lists.
func TestWithUpdatesMergeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 8+rng.Intn(20), 3+rng.Intn(6))
		var edges []Edge
		for k := 0; k < rng.Intn(6); k++ {
			edges = append(edges, Edge{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)})
		}
		var attrs []AttrEntry
		for k := 0; k < rng.Intn(6); k++ {
			attrs = append(attrs, AttrEntry{Node: rng.Intn(g.N), Attr: rng.Intn(g.D), Weight: float64(rng.Intn(8)) * 0.25})
		}
		got, err := g.WithUpdates(edges, attrs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(g.N, g.D, append(g.Edges(), edges...), append(g.AttrEntries(), attrs...), g.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if !csrsEqual(got.Adj, want.Adj) {
			t.Fatalf("trial %d: merged adjacency differs from rebuild", trial)
		}
		if !csrsEqual(got.Attr, want.Attr) {
			t.Fatalf("trial %d: merged attributes differ from rebuild", trial)
		}
		if !csrsEqual(got.AdjT, want.AdjT) {
			t.Fatalf("trial %d: merged transpose differs from rebuild", trial)
		}
		for v := 0; v < g.N; v++ {
			if got.OutDegree(v) != want.OutDegree(v) {
				t.Fatalf("trial %d: out-degree of %d differs", trial, v)
			}
		}
	}
}

// TestPatchedProductsMatchFresh checks that the derived-matrix cache
// carried across WithUpdates is bit-identical to one built from scratch
// on the updated graph.
func TestPatchedProductsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 8+rng.Intn(20), 3+rng.Intn(6))
		// Materialize the parent's cache so WithUpdates patches it.
		g.Walk()
		g.NormalizedAttrs()
		g.AttrT()
		var edges []Edge
		for k := 0; k < 1+rng.Intn(5); k++ {
			edges = append(edges, Edge{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)})
		}
		var attrs []AttrEntry
		if trial%2 == 0 {
			for k := 0; k < 1+rng.Intn(5); k++ {
				attrs = append(attrs, AttrEntry{Node: rng.Intn(g.N), Attr: rng.Intn(g.D), Weight: float64(1+rng.Intn(8)) * 0.25})
			}
		}
		g2, err := g.WithUpdates(edges, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if g2.prod == nil {
			t.Fatal("WithUpdates did not carry the derived cache")
		}
		fresh, err := New(g.N, g.D, g2.Edges(), g2.AttrEntries(), g2.Labels)
		if err != nil {
			t.Fatal(err)
		}
		fp, fpt := fresh.Walk()
		frr, frc := fresh.NormalizedAttrs()
		p, pt := g2.Walk()
		rr, rc := g2.NormalizedAttrs()
		if !csrsEqual(p, fp) || !csrsEqual(pt, fpt) {
			t.Fatalf("trial %d: patched walk matrices differ from fresh", trial)
		}
		if !densesEqual(rr, frr) {
			t.Fatalf("trial %d: patched Rr differs from fresh", trial)
		}
		if !densesEqual(rc, frc) {
			t.Fatalf("trial %d: patched Rc differs from fresh", trial)
		}
		fs := fresh.AttrColSums()
		for j, s := range g2.AttrColSums() {
			if s != fs[j] {
				t.Fatalf("trial %d: patched attr col sum %d differs: %v vs %v", trial, j, s, fs[j])
			}
		}
		if !csrsEqual(g2.AttrT(), fresh.AttrT()) {
			t.Fatalf("trial %d: patched AttrT differs from fresh", trial)
		}
	}
}

// TestProductsCachedAndShared checks that Walk/NormalizedAttrs return the
// same objects on repeated calls (the memoization contract).
func TestProductsCachedAndShared(t *testing.T) {
	g := RunningExample()
	p1, pt1 := g.Walk()
	p2, pt2 := g.Walk()
	if p1 != p2 || pt1 != pt2 {
		t.Fatal("Walk results not cached")
	}
	rr1, rc1 := g.NormalizedAttrs()
	rr2, rc2 := g.NormalizedAttrs()
	if rr1 != rr2 || rc1 != rc2 {
		t.Fatal("NormalizedAttrs results not cached")
	}
	if g.AttrT() != g.AttrT() {
		t.Fatal("AttrT not cached")
	}
}

// TestEdgeOnlyUpdateSharesAttrProducts checks that an edge-only delta
// carries the attribute-side products across without any recompute (the
// hot path of high-rate edge ingest).
func TestEdgeOnlyUpdateSharesAttrProducts(t *testing.T) {
	g := RunningExample()
	rr, rc := g.NormalizedAttrs()
	at := g.AttrT()
	g2, err := g.WithUpdates([]Edge{{Src: 0, Dst: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr2, rc2 := g2.NormalizedAttrs()
	if rr2 != rr || rc2 != rc {
		t.Fatal("edge-only update should share Rr/Rc")
	}
	if g2.Attr != g.Attr || g2.AttrT() != at {
		t.Fatal("edge-only update should share the attribute matrix and its transpose")
	}
}
