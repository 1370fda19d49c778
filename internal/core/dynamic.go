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
//
// Refine is the one way an embedding moves after training. It sweeps the
// rows an UpdateDelta lists and leaves every other row bit-identical; a
// full update is the delta that lists every row (AllRows), which sweeps
// exactly as training's CCD does.

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

// AllRows is the delta that lists every node row and every attribute row
// of an n-node, d-attribute model: refining it is a full warm start.
func AllRows(n, d int) UpdateDelta { return UpdateDelta{Nodes: upTo(n), Attrs: upTo(d)} }

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

// Refine warm-starts CCD from prev against the affinity targets of st and
// runs sweeps (≥ 1) sweeps over the rows delta lists; every unlisted row of
// the returned embedding is bit-identical to prev, and prev is not
// mutated. This is what makes the update path O(Δ) downstream — the
// serving index can trust that exactly delta's rows (plus, when any Y row
// moved, everything derived from the Gram matrix G = YᵀY) changed.
//
// A node-only delta materializes exactly the delta's target rows from st
// and rebuilds only their residual rows (the node sweep for row v reads and
// writes only Sf[v]/Sb[v]), so the whole model-side update is O(|Δ|·d·k) —
// no n x d pass anywhere. With attribute rows in the delta the full
// residuals are needed (an attribute sweep walks its residual column across
// all n nodes), so that path materializes the affinity from st and rebuilds
// both residuals in O(n·d·k), then restricts only the sweeps.
func Refine(st *AffinityState, prev *Embedding, sweeps, nb int, delta UpdateDelta) *Embedding {
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
	if sweeps < 1 {
		panic(fmt.Sprintf("core: Refine with %d sweeps", sweeps))
	}
	if nb < 1 {
		nb = 1
	}
	if delta.Empty() {
		// Nothing to refine: the previous embedding is the answer. The
		// matrices are immutable by convention, so sharing them is safe.
		e := *prev
		return &e
	}
	if len(delta.Attrs) == 0 {
		fRows, bRows := st.AffinityRows(delta.Nodes, nb)
		return refineNodeRows(prev, fRows, bRows, sweeps, nb, delta.Nodes)
	}
	f, b := st.Affinity(nb)
	ws := warmState(prev, f, b, nb)
	refineRows(ws, sweeps, nb, delta.Nodes, delta.Attrs)
	return ws.embedding()
}

// warmState seeds the solver with contiguous copies of prev's factors and
// rebuilds both residuals in full, O(n·d·k), in place over f and b, which
// it takes ownership of.
func warmState(prev *Embedding, f, b *mat.Dense, nb int) *state {
	st := &state{Xf: prev.Xf.Dense(), Xb: prev.Xb.Dense(), Y: prev.Y.Clone(), Sf: f, Sb: b}
	residualize(f, st.Xf, st.Y, nb)
	residualize(b, st.Xb, st.Y, nb)
	return st
}

// refineNodeRows is Refine's node-only path: row j of fRows/bRows is the
// affinity row of nodes[j]. The touched rows are gathered into compact
// matrices, their residual rows built directly (O(|Δ|·d·k), not
// O(n·d·k)), swept with Y fixed, and scattered into copies of the previous
// factors' pages that hold them (every other page is shared with prev). Y
// is returned by reference, unchanged — which is what lets the serving
// layer keep every Gram-derived structure bit-for-bit.
func refineNodeRows(prev *Embedding, fRows, bRows *mat.Dense, sweeps, nb int, nodes []int) *Embedding {
	nd := len(nodes)
	half := prev.Xf.Cols
	subXf := mat.New(nd, half)
	subXb := mat.New(nd, half)
	for j, v := range nodes {
		copy(subXf.Row(j), prev.Xf.Row(v))
		copy(subXb.Row(j), prev.Xb.Row(v))
	}
	// The residual rows are made in place over the target rows, by the
	// arithmetic a full rebuild uses, so they match its rows bit for bit.
	st := &state{Xf: subXf, Xb: subXb, Y: prev.Y, Sf: fRows, Sb: bRows}
	residualize(fRows, subXf, prev.Y, nb)
	residualize(bRows, subXb, prev.Y, nb)
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
