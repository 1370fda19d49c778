package graph

import (
	"fmt"
	"sort"

	"pane/internal/sparse"
)

// This file supports the dynamic-update path (§7 of the paper, implemented
// in core/dynamic.go): a Graph is immutable, so an update produces a new
// Graph from the old one plus a delta. The node and attribute universes
// are fixed — embeddings are positional, so growing |V| or |R| requires a
// retrain, not an update.

// Edges returns every directed edge of g in row-major (src, then dst) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := 0; u < g.N; u++ {
		cols, _ := g.Adj.Row(u)
		for _, v := range cols {
			out = append(out, Edge{Src: u, Dst: int(v)})
		}
	}
	return out
}

// AttrEntries returns every node-attribute association of g.
func (g *Graph) AttrEntries() []AttrEntry {
	out := make([]AttrEntry, 0, g.NNZAttr())
	for v := 0; v < g.N; v++ {
		cols, vals := g.Attr.Row(v)
		for k, c := range cols {
			out = append(out, AttrEntry{Node: v, Attr: int(c), Weight: vals[k]})
		}
	}
	return out
}

// WithUpdates returns a new Graph equal to g plus the given edge and
// attribute deltas. Duplicate edges collapse (adding an existing edge is a
// no-op); attribute weights are additive, matching New's semantics for the
// weighted set ER. Node and attribute counts are unchanged, so entries
// referencing ids outside [0,N) x [0,D) are rejected.
//
// The delta is folded into the parent's CSRs page by page: Adj, AdjT,
// Attr and AttrT share every row page the delta does not touch with g's,
// and the parent's derived cache (Walk / NormalizedAttrs products), when
// it has been materialized, is carried over with only the dirty rows and
// attribute factors recomputed — so a delta costs its own size plus one
// pointer per page (and a d-vector when it touches attributes), not the
// graph's.
func (g *Graph) WithUpdates(edges []Edge, attrs []AttrEntry) (*Graph, error) {
	edgeEntries := make([]sparse.Entry, 0, len(edges))
	edgeEntriesT := make([]sparse.Entry, 0, len(edges))
	srcSet := map[int]bool{}
	for _, e := range edges {
		if e.Src < 0 || e.Src >= g.N || e.Dst < 0 || e.Dst >= g.N {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d nodes", e.Src, e.Dst, g.N)
		}
		edgeEntries = append(edgeEntries, sparse.Entry{Row: e.Src, Col: e.Dst, Val: 1})
		edgeEntriesT = append(edgeEntriesT, sparse.Entry{Row: e.Dst, Col: e.Src, Val: 1})
		srcSet[e.Src] = true
	}
	attrEntries := make([]sparse.Entry, 0, len(attrs))
	attrEntriesT := make([]sparse.Entry, 0, len(attrs))
	attrSet := map[int]bool{}
	for _, a := range attrs {
		if err := checkAttrEntry(a, g.N, g.D); err != nil {
			return nil, err
		}
		if a.Weight == 0 {
			continue
		}
		attrEntries = append(attrEntries, sparse.Entry{Row: a.Node, Col: a.Attr, Val: a.Weight})
		attrEntriesT = append(attrEntriesT, sparse.Entry{Row: a.Attr, Col: a.Node, Val: a.Weight})
		attrSet[a.Attr] = true
	}
	// An inserted edge has weight 1 whether or not it was already stored,
	// on both sides, so AdjT stays exactly Adj's transpose. Weights on a
	// repeated (node, attribute) pair are added in delta order on both
	// sides, so AttrT stays exactly Attr's.
	one := func(old, add float64) float64 { return 1 }
	sum := func(old, add float64) float64 { return old + add }
	ng := &Graph{
		N: g.N, D: g.D, Labels: g.Labels,
		Adj:   g.Adj.MergeEntries(edgeEntries, one),
		AdjT:  g.AdjT.MergeEntries(edgeEntriesT, one),
		Attr:  g.Attr.MergeEntries(attrEntries, sum),
		AttrT: g.AttrT.MergeEntries(attrEntriesT, sum),
	}
	g.prodMu.Lock()
	old := g.prod
	g.prodMu.Unlock()
	if old != nil {
		ng.prod = ng.patchDerived(old, sortedKeys(srcSet), sortedKeys(attrSet))
	}
	return ng, nil
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// FromCSR reconstructs a Graph directly from its adjacency and attribute
// matrices, bypassing the entry-list normalization of New — the CSRs are
// used as-is, so a Graph round-tripped through its matrices (e.g. via a
// store bundle) is bit-identical. The caller must not mutate adj or attr
// afterwards; rows must be sorted by column as NewCSR produces them.
func FromCSR(adj, attr *sparse.CSR, labels [][]int) (*Graph, error) {
	if adj.R != adj.C {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", adj.R, adj.C)
	}
	if attr.R != adj.R {
		return nil, fmt.Errorf("graph: attribute rows %d != nodes %d", attr.R, adj.R)
	}
	if labels != nil && len(labels) != adj.R {
		return nil, fmt.Errorf("graph: labels length %d != n %d", len(labels), adj.R)
	}
	return newGraph(adj, attr, labels), nil
}
