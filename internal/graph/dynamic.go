package graph

import (
	"fmt"
	"slices"

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

// Effect is what one write changed in a graph, as ascending row lists
// without repeats. Apply computes it once, from the write and the graph it
// applies to; Rc's cached column factors, the affinity patch
// (core.UpdateAffinity) and the warm start read it and re-derive nothing.
type Effect struct {
	// PRows are the sources of edges the graph did not hold: an added
	// out-edge rescales the whole row of P.
	PRows []int
	// PTRows are the Pᵀ rows those rows rescale: the sources'
	// out-neighbours in the new graph, each holding one entry of a
	// rescaled column.
	PTRows []int
	// RrRows are the nodes of attribute entries of non-zero weight: the
	// rows of Rr they re-normalize.
	RrRows []int
	// Attrs are those entries' attributes: their Rc column factors are
	// re-summed, and their Y rows are the ones a warm start moves.
	Attrs []int
	// RcRows are the Rc rows Attrs re-normalize: their supporters in the
	// new graph.
	RcRows []int
	// Nodes are the node rows a warm start moves: both endpoints of every
	// added edge, and RrRows.
	Nodes []int
}

// Apply returns a new Graph equal to g plus the given edge and attribute
// writes, and the Effect the writes had. Node and attribute counts are
// unchanged, so entries referencing ids outside [0,N) x [0,D) are
// rejected, as are attribute weights checkAttrEntry refuses. An edge g
// already holds is dropped before the merge, so re-sending one changes
// nothing. Attribute weights are additive, matching New's semantics for
// the weighted set ER, and a zero weight changes nothing.
//
// The writes are folded into the parent's CSRs page by page: Adj, AdjT,
// Attr and AttrT share every row page the effect does not touch with g's.
// P and Pᵀ are views of Adj and AdjT, so they follow with nothing to
// patch, and the parent's Rc column factors, when they have been built,
// are carried over with only the effect's attributes re-summed — so a
// write costs its own size plus one pointer per page (and a d-vector when
// it touches attributes), not the graph's.
func (g *Graph) Apply(edges []Edge, attrs []AttrEntry) (*Graph, Effect, error) {
	var eff Effect
	edgeEntries := make([]sparse.Entry, 0, len(edges))
	edgeEntriesT := make([]sparse.Entry, 0, len(edges))
	for _, e := range edges {
		if e.Src < 0 || e.Src >= g.N || e.Dst < 0 || e.Dst >= g.N {
			return nil, Effect{}, fmt.Errorf("graph: edge (%d,%d) out of range for %d nodes", e.Src, e.Dst, g.N)
		}
		if g.HasEdge(e.Src, e.Dst) {
			continue
		}
		edgeEntries = append(edgeEntries, sparse.Entry{Row: e.Src, Col: e.Dst})
		edgeEntriesT = append(edgeEntriesT, sparse.Entry{Row: e.Dst, Col: e.Src})
		eff.PRows = append(eff.PRows, e.Src)
		eff.Nodes = append(eff.Nodes, e.Src, e.Dst)
	}
	attrEntries := make([]sparse.Entry, 0, len(attrs))
	attrEntriesT := make([]sparse.Entry, 0, len(attrs))
	for _, a := range attrs {
		if err := checkAttrEntry(a, g.N, g.D); err != nil {
			return nil, Effect{}, err
		}
		if a.Weight == 0 {
			continue
		}
		attrEntries = append(attrEntries, sparse.Entry{Row: a.Node, Col: a.Attr, Val: a.Weight})
		attrEntriesT = append(attrEntriesT, sparse.Entry{Row: a.Attr, Col: a.Node, Val: a.Weight})
		eff.RrRows = append(eff.RrRows, a.Node)
		eff.Attrs = append(eff.Attrs, a.Attr)
	}
	// An edge repeated within the write is inserted once on both sides of
	// the adjacency patterns, so AdjT stays exactly Adj's transpose.
	// Weights on a repeated (node, attribute) pair are added in write order
	// on both sides, so AttrT stays exactly Attr's.
	sum := func(old, add float64) float64 { return old + add }
	ng := &Graph{
		N: g.N, D: g.D, Labels: g.Labels,
		Adj:   g.Adj.MergeEntries(edgeEntries, nil),
		AdjT:  g.AdjT.MergeEntries(edgeEntriesT, nil),
		Attr:  g.Attr.MergeEntries(attrEntries, sum),
		AttrT: g.AttrT.MergeEntries(attrEntriesT, sum),
	}
	eff.PRows, eff.RrRows, eff.Attrs = sortedSet(eff.PRows), sortedSet(eff.RrRows), sortedSet(eff.Attrs)
	eff.Nodes = sortedSet(append(eff.Nodes, eff.RrRows...))
	eff.PTRows, eff.RcRows = colsOf(ng.Adj, eff.PRows), colsOf(ng.AttrT, eff.Attrs)
	ng.patchColInv(g, eff)
	return ng, eff, nil
}

// WithUpdates is Apply without the effect.
func (g *Graph) WithUpdates(edges []Edge, attrs []AttrEntry) (*Graph, error) {
	ng, _, err := g.Apply(edges, attrs)
	return ng, err
}

// colsOf returns the column ids stored in the given rows of m, ascending
// and without repeats.
func colsOf(m *sparse.CSR, rows []int) []int {
	n := 0
	for _, r := range rows {
		cols, _ := m.Row(r)
		n += len(cols)
	}
	out := slices.Grow([]int(nil), n) // nil when the rows hold nothing
	for _, r := range rows {
		cols, _ := m.Row(r)
		for _, c := range cols {
			out = append(out, int(c))
		}
	}
	return sortedSet(out)
}

// sortedSet sorts rows ascending and drops repeats, in place.
func sortedSet(rows []int) []int {
	slices.Sort(rows)
	return slices.Compact(rows)
}

// FromCSR reconstructs a Graph directly from its adjacency and attribute
// matrices, bypassing the entry-list normalization of New — the CSRs are
// used as-is, so a Graph round-tripped through its matrices (e.g. via a
// store bundle) is bit-identical. The caller must not mutate adj or attr
// afterwards; rows must be sorted by column as NewCSR produces them. The
// adjacency must store 1 at every entry (it is kept as a pattern), and
// every attribute weight must pass New's rule.
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
	adj, err := adj.Pattern()
	if err != nil {
		return nil, fmt.Errorf("graph: adjacency: %w", err)
	}
	for v := 0; v < attr.R; v++ {
		cols, vals := attr.Row(v)
		for k, c := range cols {
			if err := checkAttrEntry(AttrEntry{Node: v, Attr: int(c), Weight: vals[k]}, attr.R, attr.C); err != nil {
				return nil, err
			}
		}
	}
	return newGraph(adj, attr, labels), nil
}
