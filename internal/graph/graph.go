// Package graph defines the attributed network G = (V, EV, R, ER) of the
// paper (§2.1) and derives from it the matrices PANE consumes: adjacency A
// in CSR form, the random-walk matrix P = D⁻¹A, the attribute matrix R,
// and its row/column normalizations Rr and Rc (Equation 1).
package graph

import (
	"fmt"
	"sync"

	"pane/internal/mat"
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

	Adj    *sparse.CSR // n x n adjacency, A[i,j] = 1 iff (i,j) ∈ EV
	AdjT   *sparse.CSR // transpose of Adj (in-edges as CSR)
	Attr   *sparse.CSR // n x d attribute matrix R
	Labels [][]int     // optional per-node label sets (may be nil)

	// Lazily-built cache of the derived matrices (P, Pᵀ, Rr, Rc, …).
	// Logically the graph stays immutable: the cache only memoizes pure
	// functions of Adj/Attr, and WithUpdates carries it across versions
	// with the dirty parts patched.
	prodMu sync.Mutex
	prod   *derived
}

// New builds a Graph from n nodes, d attributes, the directed edge list,
// and the node-attribute associations. Duplicate edges collapse to weight
// 1; attribute duplicates are summed. Labels may be nil.
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
		if a.Node < 0 || a.Node >= n || a.Attr < 0 || a.Attr >= d {
			return nil, fmt.Errorf("graph: attribute entry (%d,%d) out of range", a.Node, a.Attr)
		}
		if a.Weight < 0 {
			return nil, fmt.Errorf("graph: negative attribute weight %v at (%d,%d)", a.Weight, a.Node, a.Attr)
		}
		if a.Weight == 0 {
			continue
		}
		attrEntries = append(attrEntries, sparse.Entry{Row: a.Node, Col: a.Attr, Val: a.Weight})
	}
	if labels != nil && len(labels) != n {
		return nil, fmt.Errorf("graph: labels length %d != n %d", len(labels), n)
	}
	adj := sparse.NewCSR(n, n, adjEntries)
	return &Graph{
		N:      n,
		D:      d,
		Adj:    adj,
		AdjT:   adj.T(),
		Attr:   sparse.NewCSR(n, d, attrEntries),
		Labels: labels,
	}, nil
}

// M returns the number of directed edges.
func (g *Graph) M() int { return g.Adj.NNZ() }

// NNZAttr returns |ER|, the number of node-attribute associations.
func (g *Graph) NNZAttr() int { return g.Attr.NNZ() }

// OutDegree returns the out-degree of node v: the sum of its out-edge
// weights, read off the adjacency row.
func (g *Graph) OutDegree(v int) float64 { return g.Adj.RowSum(v) }

// Walk returns the random-walk matrix P = D⁻¹A together with its
// transpose Pᵀ. Rows of dangling nodes (out-degree 0) are zero: a walk at
// a dangling node has nowhere to go, so the iterative recurrence of
// Equation (6) simply stops propagating mass through it. This matches the
// behaviour of the simulator in package rwalk, which terminates walks
// stranded at dangling nodes.
//
// The matrices are cached on the graph (and carried across WithUpdates
// with only the dirty parts recomputed); they are shared and must not be
// mutated.
func (g *Graph) Walk() (p, pt *sparse.CSR) {
	pr := g.products()
	return pr.p, pr.pt
}

// NormalizedAttrs returns the row-normalized attribute matrix Rr
// (Rr[v,r] = R[v,r]/Σ_l R[v,l], node v's attribute pick distribution used
// by the forward walk) and the column-normalized Rc
// (Rc[v,r] = R[v,r]/Σ_l R[l,r], attribute r's node pick distribution used
// by the backward walk) as dense n x d matrices — the seeds P(0)_f and
// P(0)_b of Algorithm 2.
//
// NOTE: the arXiv transcription of Equation (1) swaps the two formulas
// relative to their names; the walk semantics of §2.2/§3.1 ("Rr[vl,rj] is
// the probability that node vl picks attribute rj"; "Rc[vl,rj] is the
// probability that attribute rj picks node vl") are unambiguous, so we
// follow the semantics: Rr row-stochastic, Rc column-stochastic. Zero
// rows/columns stay zero.
//
// Like Walk, the matrices are cached on the graph and carried across
// WithUpdates with only the dirty rows/columns re-normalized; they are
// shared and must not be mutated.
func (g *Graph) NormalizedAttrs() (rr, rc *mat.Dense) {
	pr := g.products()
	return pr.rr, pr.rc
}

// AttrColSums returns the attribute matrix's per-column weight sums (Rc's
// normalization denominators), cached with the other derived products.
// The slice is shared and must not be mutated.
func (g *Graph) AttrColSums() []float64 {
	return g.products().attrColSums
}

// ForwardPickProbs returns the distribution used at the end of a forward
// walk: for node v, row v holds the probability of picking each attribute
// (row-normalized attribute matrix Rr). Nodes without attributes have a
// zero row; per footnote 1 of the paper the simulator restarts such walks
// from the source.
func (g *Graph) ForwardPickProbs() *mat.Dense {
	r := g.Attr.ToDense()
	r.NormalizeRows()
	return r
}

// BackwardStartProbs returns, for each attribute column r, the
// distribution over nodes from which a backward walk starts, i.e. the
// column-normalized attribute matrix (Rc in the backward-walk prose of
// §2.2, which picks node vl with probability proportional to the weight
// of (vl, r)).
func (g *Graph) BackwardStartProbs() *mat.Dense {
	r := g.Attr.ToDense()
	r.NormalizeColumns()
	return r
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
