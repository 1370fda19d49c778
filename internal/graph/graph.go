// Package graph defines the attributed network G = (V, EV, R, ER) of the
// paper (§2.1) and derives from it the matrices PANE consumes: adjacency A
// and its transpose as CSR patterns (row pointers and columns, no values:
// A[i,j] = 1 iff (i,j) ∈ EV), the random-walk matrix P = D⁻¹A and Pᵀ as
// views of them, the attribute matrix R, and its row/column
// normalizations Rr and Rc (Equation 1) as views of R.
package graph

import (
	"fmt"
	"math"
	"sync"

	"pane/internal/sparse"
)

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst int
}

// AttrEntry associates node Node with attribute Attr at weight Weight
// (one element of ER).
type AttrEntry struct {
	Node, Attr int
	Weight     float64
}

// Graph is an immutable attributed directed graph. Build one with New;
// undirected inputs should be symmetrized by the caller (each undirected
// edge becomes two directed edges, the convention of §2.1).
type Graph struct {
	N int // number of nodes |V|
	D int // number of attributes |R|

	Adj    *sparse.CSR // n x n adjacency pattern, A[i,j] = 1 iff (i,j) ∈ EV
	AdjT   *sparse.CSR // transpose of Adj (in-edges), a pattern too
	Attr   *sparse.CSR // n x d attribute matrix R
	AttrT  *sparse.CSR // transpose of Attr (supporting nodes per attribute)
	Labels [][]int     // optional per-node label sets (may be nil)

	// Lazily-built cache of Rc's column factors, 1/Σ_v R[v,r] per
	// attribute r (1 when r has no weight). Logically the graph stays
	// immutable: the cache only memoizes a pure function of Attr, and
	// Apply carries it across versions with the touched factors re-summed.
	colInvMu sync.Mutex
	colInv   []float64
}

// New builds a Graph from n nodes, d attributes, the directed edge list,
// and the node-attribute associations. A repeated edge is stored once;
// attribute duplicates are summed. Labels may be nil.
func New(n, d int, edges []Edge, attrs []AttrEntry, labels [][]int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: need at least one node, got %d", n)
	}
	if d < 0 {
		return nil, fmt.Errorf("graph: negative attribute count %d", d)
	}
	adjEntries := make([]sparse.Entry, 0, len(edges))
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d nodes", e.Src, e.Dst, n)
		}
		key := [2]int{e.Src, e.Dst}
		if seen[key] {
			continue
		}
		seen[key] = true
		adjEntries = append(adjEntries, sparse.Entry{Row: e.Src, Col: e.Dst, Val: 1})
	}
	attrEntries := make([]sparse.Entry, 0, len(attrs))
	for _, a := range attrs {
		if err := checkAttrEntry(a, n, d); err != nil {
			return nil, err
		}
		if a.Weight == 0 {
			continue
		}
		attrEntries = append(attrEntries, sparse.Entry{Row: a.Node, Col: a.Attr, Val: a.Weight})
	}
	if labels != nil && len(labels) != n {
		return nil, fmt.Errorf("graph: labels length %d != n %d", len(labels), n)
	}
	adj, err := sparse.NewCSR(n, n, adjEntries).Pattern()
	if err != nil {
		return nil, err
	}
	return newGraph(adj, sparse.NewCSR(n, d, attrEntries), labels), nil
}

// checkAttrEntry rejects an attribute entry outside the n x d universe, or
// one whose weight is negative, NaN or infinite: every graph constructor
// and update shares it, since one such weight poisons every affinity and
// embedding row it reaches.
func checkAttrEntry(a AttrEntry, n, d int) error {
	if a.Node < 0 || a.Node >= n || a.Attr < 0 || a.Attr >= d {
		return fmt.Errorf("graph: attribute entry (%d,%d) out of range", a.Node, a.Attr)
	}
	if a.Weight < 0 || math.IsNaN(a.Weight) || math.IsInf(a.Weight, 0) {
		return fmt.Errorf("graph: attribute weight %v at (%d,%d) is not a finite non-negative number", a.Weight, a.Node, a.Attr)
	}
	return nil
}

// newGraph wraps built adjacency and attribute matrices with their
// transposes.
func newGraph(adj, attr *sparse.CSR, labels [][]int) *Graph {
	return &Graph{N: adj.R, D: attr.C, Adj: adj, AdjT: adj.T(), Attr: attr, AttrT: attr.TByRow(), Labels: labels}
}

// M returns the number of directed edges.
func (g *Graph) M() int { return g.Adj.NNZ() }

// NNZAttr returns |ER|, the number of node-attribute associations.
func (g *Graph) NNZAttr() int { return g.Attr.NNZ() }

// OutDegree returns the out-degree of node v, its adjacency row's length.
func (g *Graph) OutDegree(v int) int { return len(g.OutNeighbors(v)) }

// Walk returns the random-walk matrix P = D⁻¹A together with its
// transpose Pᵀ, as views of the adjacency that store nothing: P is Adj
// with row u scaled by 1/out-degree(u), Pᵀ is AdjT with column u scaled by
// the same factor, read off Adj's row lengths. Rows of dangling nodes
// (out-degree 0) are zero: a walk at a dangling node has nowhere to go,
// so the iterative recurrence of Equation (6) simply stops propagating
// mass through it. This matches the behaviour of the simulator in package
// rwalk, which terminates walks stranded at dangling nodes.
func (g *Graph) Walk() (p, pt sparse.Scaled) {
	return g.Adj.RowNormalized(), g.AdjT.ColNormalizedBy(g.Adj)
}

// NormalizedAttrs returns the row-normalized attribute matrix Rr
// (Rr[v,r] = R[v,r]/Σ_l R[v,l], node v's attribute pick distribution used
// by the forward walk) and the column-normalized Rc
// (Rc[v,r] = R[v,r]/Σ_l R[l,r], attribute r's node pick distribution used
// by the backward walk) — the seeds P(0)_f and P(0)_b of Algorithm 2 — as
// scaled views of the attribute CSR, never as dense n x d matrices.
//
// NOTE: the arXiv transcription of Equation (1) swaps the two formulas
// relative to their names; the walk semantics of §2.2/§3.1 ("Rr[vl,rj] is
// the probability that node vl picks attribute rj"; "Rc[vl,rj] is the
// probability that attribute rj picks node vl") are unambiguous, so we
// follow the semantics: Rr row-stochastic, Rc column-stochastic. Zero
// rows/columns stay zero. Nodes without attributes thus have a zero Rr
// row; per footnote 1 of the paper the simulator restarts such walks
// from the source.
//
// Rc's d column factors are cached on the graph and carried across
// Apply with only the touched attributes' re-summed; Rr's row
// factors are summed from the row as it is read.
func (g *Graph) NormalizedAttrs() (rr, rc sparse.Scaled) {
	return g.Attr.RowNormalized(), g.Attr.ColScaled(g.attrColInv())
}

// NodeAttrs returns the attribute indices and weights of node v.
func (g *Graph) NodeAttrs(v int) ([]int32, []float64) { return g.Attr.Row(v) }

// OutNeighbors returns the out-neighbor indices of node v.
func (g *Graph) OutNeighbors(v int) []int32 {
	cols, _ := g.Adj.Row(v)
	return cols
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool { return g.Adj.At(u, v) != 0 }

// Stats summarizes the graph in Table 3's terms.
type Stats struct {
	Nodes, Edges, Attrs, AttrEntries, LabelKinds int
}

// Stats returns the dataset statistics row for this graph.
func (g *Graph) Stats() Stats {
	kinds := map[int]bool{}
	for _, ls := range g.Labels {
		for _, l := range ls {
			kinds[l] = true
		}
	}
	return Stats{
		Nodes:       g.N,
		Edges:       g.M(),
		Attrs:       g.D,
		AttrEntries: g.NNZAttr(),
		LabelKinds:  len(kinds),
	}
}
