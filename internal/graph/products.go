package graph

import (
	"slices"

	"pane/internal/sparse"
)

// attrColInv returns Rc's column factors, building them on first use in
// O(|ER| + d); a Graph produced by Apply inherits its parent's factors
// with only the touched attributes' re-summed (see patchColInv), so
// repeated AffinityFromGraph calls across an update stream stop
// re-deriving them from scratch.
func (g *Graph) attrColInv() []float64 {
	g.colInvMu.Lock()
	defer g.colInvMu.Unlock()
	if g.colInv == nil {
		g.colInv = make([]float64, g.D)
		for r := range g.colInv {
			g.colInv[r] = g.attrFactor(r)
		}
	}
	return g.colInv
}

// attrFactor returns attribute r's Rc column factor, summed along its
// AttrT row: its supporters in node order, the order a dense column-sum
// pass adds them in, so the factor is the one Dense.NormalizeColumns
// would scale by.
func (g *Graph) attrFactor(r int) float64 { return sparse.InvSum(g.AttrT.RowSum(r)) }

// patchColInv carries a parent graph's Rc column factors into ng, when the
// parent has built them: the factor of every attribute in eff.Attrs is
// re-summed, every other factor is the parent's — and the parent's
// d-vector itself when the write touched no attribute.
func (ng *Graph) patchColInv(g *Graph, eff Effect) {
	g.colInvMu.Lock()
	old := g.colInv
	g.colInvMu.Unlock()
	if old == nil || len(eff.Attrs) == 0 {
		ng.colInv = old
		return
	}
	ng.colInv = slices.Clone(old)
	for _, r := range eff.Attrs {
		ng.colInv[r] = ng.attrFactor(r)
	}
}
