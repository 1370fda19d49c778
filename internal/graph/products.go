package graph

import (
	"slices"

	"pane/internal/sparse"
)

// derived caches what Walk and NormalizedAttrs compute from the graph: the
// random-walk matrix P and its transpose, and Rc's column factors (one per
// attribute). Building it costs O(m + |ER| + d); a Graph produced by
// Apply inherits its parent's cache with only the dirty rows and
// factors recomputed, so repeated AffinityFromGraph calls across an update
// stream stop re-deriving everything from scratch.
type derived struct {
	p, pt  *sparse.CSR
	colInv []float64 // 1/Σ_v R[v,r] per attribute r (1 when r has no weight)
}

// products returns the derived-matrix cache, building it on first use.
func (g *Graph) products() *derived {
	g.prodMu.Lock()
	defer g.prodMu.Unlock()
	if g.prod == nil {
		g.prod = g.buildDerived()
	}
	return g.prod
}

func (g *Graph) buildDerived() *derived {
	inv := make([]float64, g.N)
	for i := range inv {
		inv[i] = g.invOutDegree(i)
	}
	p := g.Adj.ScaleRows(inv)
	// ColSums visits each column's nonzeros in row order, the order a dense
	// column-sum pass adds them in, so these factors are the ones
	// Dense.NormalizeColumns would scale by.
	colInv := g.Attr.ColSums()
	for j, s := range colInv {
		colInv[j] = sparse.InvSum(s)
	}
	return &derived{p: p, pt: p.T(), colInv: colInv}
}

// invOutDegree is the factor row v of P scales row v of Adj by: 1/out-degree,
// 0 for a dangling node.
func (g *Graph) invOutDegree(v int) float64 {
	if dg := g.OutDegree(v); dg > 0 {
		return 1 / dg
	}
	return 0
}

// patchDerived carries a parent graph's derived cache into ng, recomputing
// only the rows the write's effect lists: row u of P and column u of Pᵀ
// (one entry in each of eff.PTRows) for every u in eff.PRows — an added
// out-edge rescales the whole row — merged into the parent's pages, and
// the column factor of every attribute in eff.Attrs, re-summed along its
// AttrT row (its supporters in node order, as a fresh build sums them).
// Every recomputed value goes through the same arithmetic as a fresh
// buildDerived, so the patched cache is bit-identical to one built from
// scratch on ng.
func (ng *Graph) patchDerived(old *derived, eff Effect) *derived {
	var pRows, ptRows []sparse.Entry
	for _, u := range eff.PRows {
		inv := ng.invOutDegree(u)
		cols, vals := ng.Adj.Row(u)
		for k, c := range cols {
			pRows = append(pRows, sparse.Entry{Row: u, Col: int(c), Val: vals[k] * inv})
			ptRows = append(ptRows, sparse.Entry{Row: int(c), Col: u, Val: vals[k] * inv})
		}
	}
	set := func(old, v float64) float64 { return v }
	d := &derived{p: old.p.MergeEntries(pRows, set), pt: old.pt.MergeEntries(ptRows, set), colInv: old.colInv}
	if len(eff.Attrs) > 0 {
		d.colInv = slices.Clone(old.colInv)
		for _, r := range eff.Attrs {
			d.colInv[r] = sparse.InvSum(ng.AttrT.RowSum(r))
		}
	}
	return d
}
