package graph

import (
	"fmt"

	"pane/internal/sparse"
)

// WeightedEdge is a directed edge carrying a positive weight. Weighted
// graphs generalize §2.1's model: the random-walk matrix becomes
// P = D⁻¹A with D the diagonal of out-weight sums, so a walk follows an
// out-edge with probability proportional to its weight.
type WeightedEdge struct {
	Src, Dst int
	Weight   float64
}

// NewWeighted builds a Graph whose adjacency carries edge weights.
// Duplicate (src,dst) pairs sum their weights. Weights must be positive.
func NewWeighted(n, d int, edges []WeightedEdge, attrs []AttrEntry, labels [][]int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: need at least one node, got %d", n)
	}
	if d < 0 {
		return nil, fmt.Errorf("graph: negative attribute count %d", d)
	}
	adjEntries := make([]sparse.Entry, 0, len(edges))
	for _, e := range edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d nodes", e.Src, e.Dst, n)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("graph: non-positive edge weight %v at (%d,%d)", e.Weight, e.Src, e.Dst)
		}
		adjEntries = append(adjEntries, sparse.Entry{Row: e.Src, Col: e.Dst, Val: e.Weight})
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
	return newGraph(sparse.NewCSR(n, n, adjEntries), sparse.NewCSR(n, d, attrEntries), labels), nil
}

// EdgeWeight returns the weight of edge (u, v), zero when absent.
func (g *Graph) EdgeWeight(u, v int) float64 { return g.Adj.At(u, v) }
