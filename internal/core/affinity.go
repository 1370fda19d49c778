package core

import (
	"fmt"
	"math"

	"pane/internal/graph"
	"pane/internal/mat"
	"pane/internal/sparse"
)

// This file makes the model side of dynamic updates O(Δ): instead of
// re-running the full APMI recurrence on every graph delta, the engine
// retains the pre-normalization recurrence levels in an AffinityState and
// UpdateAffinity re-runs the recurrence only over the rows a delta can
// actually influence — the t-hop dependency frontier of the changed CSR
// rows — patching the cached levels in place.
//
// Exactness argument: iteration ℓ of the recurrence computes row i from
// row i of the seed and the level-(ℓ−1) rows of i's out-neighbors (P for
// the forward direction, Pᵀ for the backward one). A delta changes level-1
// rows only where a P/Pᵀ row or a seed row changed; each further iteration
// propagates changes one hop along the dependency direction (in-edges for
// the forward recurrence, out-edges for the backward). Re-running all t
// iterations restricted to a superset of that frontier — reading
// out-of-frontier neighbor rows from the cached previous levels — therefore
// reproduces every frontier row bit-for-bit, and rows outside the frontier
// are untouched by construction. The normalization sums follow suit: row
// sums are row-local, and the forward column sums live in a fixed-shape
// tree over 16-row blocks whose touched leaves and their ancestors are
// re-summed in the order a fresh build sums them. A patched state is thus
// a pure function of its graph: bit-identical to NewAffinityState on the
// same graph, for any chain of updates and any worker count
// (TestUpdateAffinityChainEqualsFresh).

// colBlockRows is the number of rows of the last forward level one leaf of
// the column-sum tree covers.
const colBlockRows = 16

// AffinityState caches the pre-normalization APMI recurrence:
// P(1..t)_f and P(1..t)_b, plus the column sums of P(t)_f and the row sums
// of P(t)_b that the final normalization needs. Memory is 2·t·n·d float64s
// — for the default server configuration (eps 0.015 → t = 6) that is
// ~100 MB per million node-attribute cells, which is the price of O(Δ)
// model updates.
type AffinityState struct {
	n, d  int
	alpha float64
	t     int

	lf, lb []*mat.Dense // pre-normalization levels 1..t, both directions

	// colTree holds the column sums of lf[t-1] as a binary tree of
	// d-vectors whose shape depends on n only: leaf b (the sums of rows
	// [16b, 16b+16), added in row order) is node leaves+b, inner node k is
	// node 2k + node 2k+1, and the root, node 1, is the column-sum vector.
	colTree []float64
	leaves  int
	rowSums []float64 // row sums of lb[t-1]
}

// NewAffinityState runs the full APMI recurrence on g, retaining every
// pre-normalization level. The levels and the row sums are bit-identical
// to the internal state of APMI/PAPMI for any nb; the column sums are
// accumulated through the block tree, so Affinity() matches APMI's output
// up to float round-off in the column normalization.
func NewAffinityState(g *graph.Graph, alpha float64, t, nb int) *AffinityState {
	p, pt := g.Walk()
	rr, rc := g.NormalizedAttrs()
	if t < 1 {
		t = 1
	}
	if nb < 1 {
		nb = 1
	}
	n, d := rr.Dims()
	s := &AffinityState{n: n, d: d, alpha: alpha, t: t}
	// nil previous levels make the first iteration read the seeds' views.
	var prevF, prevB *mat.Dense
	for l := 0; l < t; l++ {
		nf := mat.New(n, d)
		nbm := mat.New(n, d)
		p.AxpyInto(nf, 1-alpha, prevF, alpha, rr, nb)
		pt.AxpyInto(nbm, 1-alpha, prevB, alpha, rc, nb)
		s.lf = append(s.lf, nf)
		s.lb = append(s.lb, nbm)
		prevF, prevB = nf, nbm
	}
	s.leaves = max(1, (n+colBlockRows-1)/colBlockRows)
	s.colTree = make([]float64, 2*s.leaves*d)
	mat.ParallelRanges(s.leaves, nb, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			s.sumLeaf(b)
		}
	})
	for k := s.leaves - 1; k >= 1; k-- {
		s.sumNode(k)
	}
	s.rowSums = prevB.RowSums()
	return s
}

// Iterations returns the retained recurrence depth t.
func (s *AffinityState) Iterations() int { return s.t }

// finalF and finalB are the level-t pre-normalization matrices.
func (s *AffinityState) finalF() *mat.Dense { return s.lf[s.t-1] }
func (s *AffinityState) finalB() *mat.Dense { return s.lb[s.t-1] }

// node returns node k of the column-sum tree.
func (s *AffinityState) node(k int) []float64 { return s.colTree[k*s.d : (k+1)*s.d] }

// colSums returns the column sums of the last forward level: the tree root.
func (s *AffinityState) colSums() []float64 { return s.node(1) }

// sumLeaf re-sums leaf b from its block of rows of the last forward level.
func (s *AffinityState) sumLeaf(b int) {
	leaf := s.node(s.leaves + b)
	clear(leaf)
	f := s.finalF()
	for i := b * colBlockRows; i < min((b+1)*colBlockRows, s.n); i++ {
		for j, v := range f.Row(i) {
			leaf[j] += v
		}
	}
}

// sumNode re-sums inner node k from its two children.
func (s *AffinityState) sumNode(k int) {
	dst, l, r := s.node(k), s.node(2*k), s.node(2*k+1)
	for j := range dst {
		dst[j] = l[j] + r[j]
	}
}

// resumColumns re-sums the leaves holding a frontier row, then their
// ancestors, children before parents (a child's index exceeds its
// parent's), leaving the tree exactly as a fresh build would.
func (s *AffinityState) resumColumns(frontier []int, nb int) {
	var blocks []int
	for _, i := range frontier {
		if b := i / colBlockRows; len(blocks) == 0 || blocks[len(blocks)-1] != b {
			blocks = append(blocks, b)
		}
	}
	mat.ParallelRanges(len(blocks), mat.RowWorkers(len(frontier), nb), func(lo, hi int) {
		for _, b := range blocks[lo:hi] {
			s.sumLeaf(b)
		}
	})
	dirty := make([]bool, s.leaves)
	for _, b := range blocks {
		for k := (s.leaves + b) / 2; k >= 1 && !dirty[k]; k /= 2 {
			dirty[k] = true
		}
	}
	for k := s.leaves - 1; k >= 1; k-- {
		if dirty[k] {
			s.sumNode(k)
		}
	}
}

// invColSums replicates NormalizeColumns' convention: zero-sum columns
// scale by 1 (stay zero).
func (s *AffinityState) invColSums() []float64 {
	inv := make([]float64, s.d)
	for j, v := range s.colSums() {
		if v != 0 {
			inv[j] = 1 / v
		} else {
			inv[j] = 1
		}
	}
	return inv
}

// affinityRowInto materializes the normalized + SPMI-transformed affinity
// rows of node v into frow/brow. The arithmetic matches APMI's
// NormalizeColumns/NormalizeRows + Log1pScaled element-for-element, so a
// materialized row is bit-identical to the same row of a full APMI run
// sharing the same sums.
func (s *AffinityState) affinityRowInto(frow, brow []float64, v int, invCol []float64, nf, df float64) {
	src := s.finalF().Row(v)
	for j := range frow {
		x := src[j] * invCol[j]
		frow[j] = math.Log1p(nf * x)
	}
	src = s.finalB().Row(v)
	rs := s.rowSums[v]
	if rs == 0 {
		for j := range brow {
			brow[j] = math.Log1p(df * src[j])
		}
		return
	}
	rinv := 1 / rs
	for j := range brow {
		x := src[j] * rinv
		brow[j] = math.Log1p(df * x)
	}
}

// Affinity materializes the full F', B' affinity matrices from the cached
// state — O(n·d), used when a delta touches attribute rows (the attribute
// CCD sweeps walk residual columns over all n nodes).
func (s *AffinityState) Affinity(nb int) (f, b *mat.Dense) {
	if nb < 1 {
		nb = 1
	}
	f = mat.New(s.n, s.d)
	b = mat.New(s.n, s.d)
	invCol := s.invColSums()
	nf, df := float64(s.n), float64(s.d)
	mat.ParallelRanges(s.n, nb, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			s.affinityRowInto(f.Row(v), b.Row(v), v, invCol, nf, df)
		}
	})
	return f, b
}

// AffinityRows materializes only the listed nodes' affinity rows —
// O(|rows|·d), the node-only delta path that avoids touching all n rows.
func (s *AffinityState) AffinityRows(rows []int, nb int) (fRows, bRows *mat.Dense) {
	if nb < 1 {
		nb = 1
	}
	fRows = mat.New(len(rows), s.d)
	bRows = mat.New(len(rows), s.d)
	invCol := s.invColSums()
	nf, df := float64(s.n), float64(s.d)
	mat.ParallelRanges(len(rows), mat.RowWorkers(len(rows), nb), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			s.affinityRowInto(fRows.Row(j), bRows.Row(j), rows[j], invCol, nf, df)
		}
	})
	return fRows, bRows
}

// AffinityUpdate reports what UpdateAffinity did.
type AffinityUpdate struct {
	// FrontierF / FrontierB are the forward and backward frontier sizes
	// (rows whose recurrence was re-run).
	FrontierF, FrontierB int
	// Incremental is false when the frontier exceeded the caller's
	// fraction budget and nothing was patched — the caller should fall
	// back to a full NewAffinityState rebuild.
	Incremental bool
}

// UpdateAffinity folds one write into the cached state: it computes the
// t-hop dependency frontier of the write's effect, re-runs the recurrence
// over frontier rows only (against the cached levels), and re-sums the
// normalization sums those rows feed. g must be the post-write graph and
// eff the Effect graph.Graph.Apply reported for the write; its rows are
// trusted as given. When either frontier exceeds maxFrac·n the state is
// left untouched and Incremental=false is returned; maxFrac <= 0 means no
// limit.
//
// Frontier construction: seed rows whose P/Pᵀ row changed (eff.PRows,
// eff.PTRows) propagate for the remaining t−1 iterations; seed rows whose
// Rr/Rc row changed (eff.RrRows, eff.RcRows) enter at iteration 0 and
// propagate t hops. Writes only ever add edges, so expanding along the new
// graph's adjacency is a superset of every propagation path in both the
// old and new graphs.
func UpdateAffinity(s *AffinityState, g *graph.Graph, eff graph.Effect, maxFrac float64, nb int) (AffinityUpdate, error) {
	if g.N != s.n || g.D != s.d {
		return AffinityUpdate{}, fmt.Errorf("core: UpdateAffinity graph %dx%d does not match state %dx%d", g.N, g.D, s.n, s.d)
	}
	if nb < 1 {
		nb = 1
	}
	if len(eff.PRows) == 0 && len(eff.RrRows) == 0 {
		return AffinityUpdate{Incremental: true}, nil
	}
	frontierF := mergeSortedUnique(
		sparse.Reach(g.AdjT, eff.RrRows, s.t),
		sparse.Reach(g.AdjT, eff.PRows, s.t-1),
	)
	frontierB := mergeSortedUnique(
		sparse.Reach(g.Adj, eff.RcRows, s.t),
		sparse.Reach(g.Adj, eff.PTRows, s.t-1),
	)
	up := AffinityUpdate{FrontierF: len(frontierF), FrontierB: len(frontierB)}
	if maxFrac > 0 {
		budget := maxFrac * float64(s.n)
		if float64(len(frontierF)) > budget || float64(len(frontierB)) > budget {
			return up, nil
		}
	}
	up.Incremental = true
	p, pt := g.Walk()
	rr, rc := g.NormalizedAttrs()
	for l := 0; l < s.t; l++ {
		var srcF, srcB *mat.Dense // nil: level 1 reads the seeds' views
		if l > 0 {
			srcF, srcB = s.lf[l-1], s.lb[l-1]
		}
		s.patchLevel(s.lf[l], p, srcF, rr, frontierF, nb)
		s.patchLevel(s.lb[l], pt, srcB, rc, frontierB, nb)
	}
	s.resumColumns(frontierF, nb)
	// Row sums are row-local: re-sum the patched rows left to right, as
	// RowSums does.
	final := s.finalB()
	mat.ParallelRanges(len(frontierB), mat.RowWorkers(len(frontierB), nb), func(lo, hi int) {
		for _, i := range frontierB[lo:hi] {
			var sum float64
			for _, v := range final.Row(i) {
				sum += v
			}
			s.rowSums[i] = sum
		}
	})
	return up, nil
}

// patchLevel re-runs one recurrence iteration for the frontier rows of
// dst, reading the previous level from src, or from the seed when src is
// nil (out-of-frontier rows keep their cached values, which is exactly
// what iteration l needs). The per-row kernel is AxpyRowInto — the same
// kernel AxpyInto runs — so a patched row is bit-identical to a full pass
// over the same inputs.
func (s *AffinityState) patchLevel(dst *mat.Dense, m sparse.Scaled, src *mat.Dense, seed sparse.Scaled, frontier []int, nb int) {
	a := 1 - s.alpha
	mat.ParallelRanges(len(frontier), mat.RowWorkers(len(frontier), nb), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i := frontier[k]
			m.AxpyRowInto(dst.Row(i), i, a, src, s.alpha, seed)
		}
	})
}

// mergeSortedUnique merges two ascending unique int slices into one.
func mergeSortedUnique(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
