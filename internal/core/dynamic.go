package core

import (
	"fmt"

	"pane/internal/mat"
)

// This file implements the paper's future-work direction of §7 ("adapt
// PANE to time-varying graphs where attributes and node connections
// change over time") in its natural factorization-solver form: when the
// graph changes, the affinity targets are brought up to date (patched
// over the delta's frontier in an AffinityState, see affinity.go), and
// the expensive solver is *warm-started* from the previous embeddings
// instead of re-running GreedyInit, since a small graph delta moves the
// optimum of Equation (4) only slightly. The same greedy-seeding logic
// that makes cold-start fast (§3.2) makes the previous solution an even
// better seed after a small change.

// RefineFrom continues CCD refinement from an existing embedding against
// (possibly updated) affinity targets f and b. prev is not mutated. The
// residuals are rebuilt once (O(n·d·k)) and then maintained incrementally
// as usual. sweeps <= 0 defaults to cfg.ccdIters().
func RefineFrom(prev *Embedding, f, b *mat.Dense, cfg Config, sweeps, nb int) *Embedding {
	if nb < 1 {
		nb = 1
	}
	st := warmState(prev, f, b, nb)
	if sweeps <= 0 {
		sweeps = cfg.ccdIters()
	}
	refine(st, sweeps, nb)
	return st.embedding()
}

// warmState seeds the solver with contiguous copies of prev's factors and
// rebuilds both residuals against f and b in full, O(n·d·k).
func warmState(prev *Embedding, f, b *mat.Dense, nb int) *state {
	st := &state{Xf: prev.Xf.Dense(), Xb: prev.Xb.Dense(), Y: prev.Y.Clone()}
	st.Sf = mat.ParMulBT(st.Xf, st.Y, nb)
	st.Sf.Sub(f)
	st.Sb = mat.ParMulBT(st.Xb, st.Y, nb)
	st.Sb.Sub(b)
	return st
}

// UpdateDelta is the row delta of one dynamic update: the node rows whose
// Xf/Xb embedding rows change and the attribute rows whose Y rows change.
// It is both the input of the delta-restricted refinement (which rows to
// refine) and its report (exactly these rows may differ from the previous
// embedding; every other row is bit-identical). Both lists must be
// strictly ascending and in range.
type UpdateDelta struct {
	Nodes []int
	Attrs []int
}

// Empty reports whether the delta touches no rows.
func (d UpdateDelta) Empty() bool { return len(d.Nodes) == 0 && len(d.Attrs) == 0 }

// Rows returns the total number of rows the delta touches.
func (d UpdateDelta) Rows() int { return len(d.Nodes) + len(d.Attrs) }

// checkRowList validates one delta row list: strictly ascending ids in
// [0, limit).
func checkRowList(rows []int, limit int, what string) error {
	for i, r := range rows {
		if r < 0 || r >= limit {
			return fmt.Errorf("core: delta %s row %d out of range [0,%d)", what, r, limit)
		}
		if i > 0 && rows[i-1] >= r {
			return fmt.Errorf("core: delta %s rows not strictly ascending at index %d (%d after %d)",
				what, i, r, rows[i-1])
		}
	}
	return nil
}

// RefineRowsFrom is the delta-restricted form of RefineFrom: only the
// listed node and attribute rows are swept; every unlisted row of the
// returned embedding is bit-identical to prev. This is what makes the
// update path O(Δ) downstream — the serving index can trust that exactly
// delta's rows (plus, when any Y row moved, everything derived from the
// Gram matrix G = YᵀY) changed.
//
// A node-only delta (no attribute rows) additionally restricts the
// residual rebuild to the touched rows: the node sweep for row v reads
// and writes only Sf[v]/Sb[v], so the O(n·d·k) full residual
// materialization of RefineFrom collapses to O(|Δ|·d·k). With attribute
// rows in the delta the full residuals are needed (an attribute sweep
// walks its residual column across all n nodes), so the general path
// rebuilds them like RefineFrom and restricts only the sweeps.
func RefineRowsFrom(prev *Embedding, f, b *mat.Dense, cfg Config, sweeps, nb int, delta UpdateDelta) *Embedding {
	// The restricted sweeps parallelize over the row lists assuming the
	// rows are distinct and in range; a duplicate would hand the same row
	// to two goroutines. Malformed deltas are a programmer error, so they
	// fail loudly here rather than corrupt an embedding.
	if err := checkRowList(delta.Nodes, prev.Xf.Rows, "node"); err != nil {
		panic(err)
	}
	if err := checkRowList(delta.Attrs, prev.Y.Rows, "attribute"); err != nil {
		panic(err)
	}
	if nb < 1 {
		nb = 1
	}
	if sweeps <= 0 {
		sweeps = cfg.ccdIters()
	}
	if delta.Empty() {
		// Nothing to refine: the previous embedding is the answer. The
		// matrices are immutable by convention, so sharing them is safe.
		e := *prev
		return &e
	}
	if len(delta.Attrs) == 0 {
		return refineNodeRowsGathered(prev, f, b, sweeps, nb, delta.Nodes)
	}
	st := warmState(prev, f, b, nb)
	refineRows(st, sweeps, nb, delta.Nodes, delta.Attrs)
	return st.embedding()
}

// refineNodeRowsGathered is the node-only fast path of RefineRowsFrom:
// the touched rows are gathered into compact matrices, their residual
// rows built directly (O(|Δ|·d·k), not O(n·d·k)), swept with Y fixed,
// and scattered into copies of the previous factors' pages that hold them
// (every other page is shared with prev). Y is returned by reference,
// unchanged — which is what lets the serving layer keep every
// Gram-derived structure (G, Z rows of untouched nodes) bit-for-bit.
func refineNodeRowsGathered(prev *Embedding, f, b *mat.Dense, sweeps, nb int, nodes []int) *Embedding {
	fRows := mat.New(len(nodes), f.Cols)
	bRows := mat.New(len(nodes), b.Cols)
	for j, v := range nodes {
		copy(fRows.Row(j), f.Row(v))
		copy(bRows.Row(j), b.Row(v))
	}
	return refineNodeRowsGatheredTargets(prev, fRows, bRows, sweeps, nb, nodes)
}

// refineNodeRowsGatheredTargets is refineNodeRowsGathered with the
// affinity targets already gathered: row j of fRows/bRows is the affinity
// row of nodes[j]. This is the entry point of the AffinityState path,
// which materializes exactly the delta's target rows (O(|Δ|·d)) instead of
// full n x d affinity matrices.
func refineNodeRowsGatheredTargets(prev *Embedding, fRows, bRows *mat.Dense, sweeps, nb int, nodes []int) *Embedding {
	nd := len(nodes)
	half := prev.Xf.Cols
	subXf := mat.New(nd, half)
	subXb := mat.New(nd, half)
	for j, v := range nodes {
		copy(subXf.Row(j), prev.Xf.Row(v))
		copy(subXb.Row(j), prev.Xb.Row(v))
	}
	st := &state{Xf: subXf, Xb: subXb, Y: prev.Y}
	st.Sf = mat.ParMulBT(subXf, prev.Y, nb)
	st.Sb = mat.ParMulBT(subXb, prev.Y, nb)
	for j := range nodes {
		// Row-wise Sub: same x + (-1)·y arithmetic as Dense.Sub, so the
		// gathered residual rows match a full rebuild's rows bit for bit.
		mat.AxpyVec(-1, fRows.Row(j), st.Sf.Row(j))
		mat.AxpyVec(-1, bRows.Row(j), st.Sb.Row(j))
	}
	// Y is fixed for the whole restricted refinement, so its column cache
	// and norms are loop-invariant.
	yColT := prev.Y.T()
	yNormInv := make([]float64, half)
	for l := range yNormInv {
		yNormInv[l] = inverse(mat.Dot(yColT.Row(l), yColT.Row(l)))
	}
	for it := 0; it < sweeps; it++ {
		mat.ParallelRanges(nd, mat.RowWorkers(nd, nb), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				ccdNodeRow(st, yNormInv, yColT, j)
			}
		})
	}
	return &Embedding{Xf: prev.Xf.WithRows(nodes, subXf), Xb: prev.Xb.WithRows(nodes, subXb), Y: prev.Y}
}

// RefineRowsFromState is RefineRowsFrom with the affinity targets served
// from an incrementally-maintained AffinityState instead of freshly
// computed matrices. For a node-only delta the state materializes exactly
// the delta's target rows, so the whole model-side update is O(Δ) — no
// n x d pass anywhere. A delta with attribute rows still needs the full
// affinity matrices (an attribute sweep walks its residual column across
// all n nodes), so that path materializes them from the state in O(n·d).
func RefineRowsFromState(st *AffinityState, prev *Embedding, cfg Config, sweeps, nb int, delta UpdateDelta) *Embedding {
	if err := checkRowList(delta.Nodes, prev.Xf.Rows, "node"); err != nil {
		panic(err)
	}
	if err := checkRowList(delta.Attrs, prev.Y.Rows, "attribute"); err != nil {
		panic(err)
	}
	if nb < 1 {
		nb = 1
	}
	if sweeps <= 0 {
		sweeps = cfg.ccdIters()
	}
	if delta.Empty() {
		e := *prev
		return &e
	}
	if len(delta.Attrs) == 0 {
		fRows, bRows := st.AffinityRows(delta.Nodes, nb)
		return refineNodeRowsGatheredTargets(prev, fRows, bRows, sweeps, nb, delta.Nodes)
	}
	f, b := st.Affinity(nb)
	stt := warmState(prev, f, b, nb)
	refineRows(stt, sweeps, nb, delta.Nodes, delta.Attrs)
	return stt.embedding()
}
