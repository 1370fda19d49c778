package graph

import (
	"math"
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

// densesEqual reports whether a and b hold the same bits.
func densesEqual(a, b *mat.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(b.Data[i]) != math.Float64bits(v) {
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
		if !csrsEqual(got.AttrT, want.AttrT) {
			t.Fatalf("trial %d: merged attribute transpose differs from rebuild", trial)
		}
		for v := 0; v < g.N; v++ {
			if got.OutDegree(v) != want.OutDegree(v) {
				t.Fatalf("trial %d: out-degree of %d differs", trial, v)
			}
		}
	}
}

// walkReference returns P = D⁻¹A and Pᵀ built densely from an edge list:
// A[u,v] = 1 for each listed edge, however often it is listed, and row u of
// P is row u of A times 1/out-degree(u), a zero row for a dangling u.
func walkReference(n int, edges []Edge) (p, pt *mat.Dense) {
	a := mat.New(n, n)
	for _, e := range edges {
		a.Set(e.Src, e.Dst, 1)
	}
	p = mat.New(n, n)
	for u := 0; u < n; u++ {
		var deg float64
		for _, x := range a.Row(u) {
			deg += x
		}
		for v, x := range a.Row(u) {
			if x != 0 {
				p.Set(u, v, x*(1/deg))
			}
		}
	}
	return p, p.T()
}

// walkMatches reports whether g's P and Pᵀ views read bit for bit as
// walkReference on edges.
func walkMatches(g *Graph, edges []Edge) bool {
	p, pt := g.Walk()
	wp, wpt := walkReference(g.N, edges)
	return densesEqual(p.ToDense(), wp) && densesEqual(pt.ToDense(), wpt)
}

// TestPatchedProductsMatchFresh checks what a graph reads along a chain of
// Apply calls: P and Pᵀ, views of the merged adjacency, against a dense
// D⁻¹A built from the edge list, and Rr, Rc and Rc's carried column
// factors against a graph built from scratch — bit for bit. Each write
// repeats an edge within itself and re-sends a held one; dangling nodes
// get their first out-edges while node 0 stays dangling throughout.
func TestPatchedProductsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n, d := 8+rng.Intn(20), 3+rng.Intn(6)
		start := randomGraph(rng, n, d)
		var edges []Edge
		for _, e := range start.Edges() {
			if e.Src%4 != 0 { // every fourth node starts dangling
				edges = append(edges, e)
			}
		}
		g, err := New(n, d, edges, start.AttrEntries(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !walkMatches(g, edges) {
			t.Fatalf("trial %d: walk views of the built graph differ from D⁻¹A", trial)
		}
		// Build the parent's factors so Apply carries them.
		g.NormalizedAttrs()
		for step := 0; step < 6; step++ {
			var w []Edge
			for k := 0; k < 1+rng.Intn(4); k++ {
				w = append(w, Edge{Src: 1 + rng.Intn(n-1), Dst: rng.Intn(n)})
			}
			w = append(w, w[0])
			if len(edges) > 0 {
				w = append(w, edges[rng.Intn(len(edges))])
			}
			var attrs []AttrEntry
			if step%2 == 0 {
				for k := 0; k < 1+rng.Intn(5); k++ {
					attrs = append(attrs, AttrEntry{Node: rng.Intn(n), Attr: rng.Intn(d), Weight: float64(1+rng.Intn(8)) * 0.25})
				}
			}
			g2, _, err := g.Apply(w, attrs)
			if err != nil {
				t.Fatal(err)
			}
			edges = append(edges, w...)
			if !walkMatches(g2, edges) {
				t.Fatalf("trial %d step %d: walk views differ from D⁻¹A", trial, step)
			}
			if g2.colInv == nil {
				t.Fatal("Apply did not carry Rc's column factors")
			}
			fresh, err := New(n, d, g2.Edges(), g2.AttrEntries(), nil)
			if err != nil {
				t.Fatal(err)
			}
			frr, frc := fresh.NormalizedAttrs()
			rr, rc := g2.NormalizedAttrs()
			if !densesEqual(rr.ToDense(), frr.ToDense()) {
				t.Fatalf("trial %d step %d: patched Rr differs from fresh", trial, step)
			}
			if !densesEqual(rc.ToDense(), frc.ToDense()) {
				t.Fatalf("trial %d step %d: patched Rc differs from fresh", trial, step)
			}
			if !slices.Equal(g2.colInv, fresh.colInv) {
				t.Fatalf("trial %d step %d: patched Rc column factors differ from fresh", trial, step)
			}
			if !csrsEqual(g2.AttrT, fresh.AttrT) {
				t.Fatalf("trial %d step %d: patched AttrT differs from fresh", trial, step)
			}
			g = g2
		}
	}
}

// TestProductsCachedAndShared checks that NormalizedAttrs reads the same
// cached column factors on repeated calls (the memoization contract).
func TestProductsCachedAndShared(t *testing.T) {
	g := RunningExample()
	g.NormalizedAttrs()
	inv := g.colInv
	g.NormalizedAttrs()
	if &g.colInv[0] != &inv[0] {
		t.Fatal("NormalizedAttrs rebuilt Rc's column factors")
	}
}

// TestEdgeOnlyUpdateSharesAttrProducts checks that an edge-only delta
// carries the attribute-side products across without any recompute (the
// hot path of high-rate edge ingest).
func TestEdgeOnlyUpdateSharesAttrProducts(t *testing.T) {
	g := RunningExample()
	g.NormalizedAttrs()
	g2, err := g.WithUpdates([]Edge{{Src: 0, Dst: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &g2.attrColInv()[0] != &g.colInv[0] {
		t.Fatal("edge-only update should share Rc's column factors")
	}
	if g2.Attr != g.Attr || g2.AttrT != g.AttrT {
		t.Fatal("edge-only update should share the attribute matrix and its transpose")
	}
}
