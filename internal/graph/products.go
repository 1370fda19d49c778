package graph

import (
	"pane/internal/mat"
	"pane/internal/sparse"
)

// derived caches the matrices Walk and NormalizedAttrs compute from the
// graph: the random-walk matrix P and its transpose, the normalized
// attribute seeds Rr/Rc, the attribute column sums (Rc's denominators),
// and the lazily-built attribute transpose. Building them costs
// O(m + n·d); a Graph produced by WithUpdates inherits its parent's cache
// with only the dirty rows and columns recomputed, so repeated
// AffinityFromGraph calls across an update stream stop re-deriving
// everything from scratch.
type derived struct {
	p, pt       *sparse.CSR
	rr, rc      *mat.Dense
	attrColSums []float64
	attrT       *sparse.CSR // nil until first requested via AttrT
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
	rr := g.Attr.ToDense()
	rc := rr.Clone()
	rr.NormalizeRows()
	// Keep Rc's column sums: the incremental patch adjusts only touched
	// columns, and callers (the affinity frontier) need them anyway. The
	// dense ColSums pass visits the same nonzeros in the same row-major
	// order NormalizeColumns would, so scaling by these sums is
	// bit-identical to calling NormalizeColumns.
	colSums := rc.ColSums()
	scaleColumns(rc, colSums)
	return &derived{p: p, pt: p.T(), rr: rr, rc: rc, attrColSums: colSums}
}

// invOutDegree is the factor row v of P scales row v of Adj by: 1/out-degree,
// 0 for a dangling node.
func (g *Graph) invOutDegree(v int) float64 {
	if dg := g.OutDegree(v); dg > 0 {
		return 1 / dg
	}
	return 0
}

// scaleColumns is the scaling pass of Dense.NormalizeColumns with the sums
// supplied by the caller: columns with zero sum are left untouched.
func scaleColumns(m *mat.Dense, sums []float64) {
	inv := make([]float64, m.Cols)
	for j, s := range sums {
		if s != 0 {
			inv[j] = 1 / s
		} else {
			inv[j] = 1
		}
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= inv[j]
		}
	}
}

// AttrT returns the transpose of the attribute matrix (attributes as rows,
// supporting nodes as columns), cached after the first call. The result is
// shared and must not be mutated. The dynamic path uses it to find the
// nodes whose Rc entries an attribute delta moves.
func (g *Graph) AttrT() *sparse.CSR {
	g.prodMu.Lock()
	defer g.prodMu.Unlock()
	if g.prod == nil {
		g.prod = g.buildDerived()
	}
	if g.prod.attrT == nil {
		g.prod.attrT = g.Attr.T()
	}
	return g.prod.attrT
}

// patchDerived carries a parent graph's derived cache into ng, recomputing
// only what the delta dirtied: row u of P and column u of Pᵀ (one entry in
// the Pᵀ row of each of u's out-neighbours) for every edge source u —
// an added out-edge rescales the whole row — merged into the parent's
// pages, Rr rows for the touched nodes only, and Rc columns (with their
// sums) for the touched attributes only. Every recomputed value goes
// through the same arithmetic as a fresh buildDerived, so the patched
// cache is bit-identical to one built from scratch on ng.
func (ng *Graph) patchDerived(old *derived, edgeSrcs, touchedNodes, touchedAttrs []int) *derived {
	var pRows, ptRows []sparse.Entry
	for _, u := range edgeSrcs {
		inv := ng.invOutDegree(u)
		cols, vals := ng.Adj.Row(u)
		for k, c := range cols {
			pRows = append(pRows, sparse.Entry{Row: u, Col: int(c), Val: vals[k] * inv})
			ptRows = append(ptRows, sparse.Entry{Row: int(c), Col: u, Val: vals[k] * inv})
		}
	}
	set := func(old, v float64) float64 { return v }
	d := &derived{p: old.p.MergeEntries(pRows, set), pt: old.pt.MergeEntries(ptRows, set)}
	if len(touchedNodes) == 0 && len(touchedAttrs) == 0 {
		d.rr, d.rc, d.attrColSums, d.attrT = old.rr, old.rc, old.attrColSums, old.attrT
		return d
	}
	attrT := ng.Attr.T()
	d.attrT = attrT
	rr := old.rr.Clone()
	for _, v := range touchedNodes {
		row := rr.Row(v)
		for j := range row {
			row[j] = 0
		}
		cols, vals := ng.Attr.Row(v)
		var s float64
		for _, w := range vals {
			s += w
		}
		if s == 0 {
			continue
		}
		rinv := 1 / s
		for k, c := range cols {
			row[c] = vals[k] * rinv
		}
	}
	d.rr = rr
	rc := old.rc.Clone()
	sums := append([]float64(nil), old.attrColSums...)
	for _, r := range touchedAttrs {
		nodes, vals := attrT.Row(r)
		var s float64
		for _, w := range vals {
			s += w
		}
		sums[r] = s
		cinv := 1.0
		if s != 0 {
			cinv = 1 / s
		}
		// Attribute weights are additive, so the new column's support is a
		// superset of the old one: overwriting the new supporters covers
		// every previously-stored entry, and untouched zeros stay zero.
		for k, v := range nodes {
			rc.Row(int(v))[r] = vals[k] * cinv
		}
	}
	d.rc = rc
	d.attrColSums = sums
	return d
}
