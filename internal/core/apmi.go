package core

import (
	"pane/internal/graph"
	"pane/internal/mat"
	"pane/internal/sparse"
)

// APMI (Algorithm 2) approximates the forward and backward affinity
// matrices F' and B' of Equation (7) in O(m·d·t) time without sampling a
// single random walk. It returns dense n x d matrices.
//
// The recurrence (Lines 3-5) is
//
//	P(ℓ)_f = (1−α)·P·P(ℓ−1)_f + α·P(0)_f,   P(0)_f = Rr
//	P(ℓ)_b = (1−α)·Pᵀ·P(ℓ−1)_b + α·P(0)_b,  P(0)_b = Rc
//
// followed by column-normalizing P(t)_f, row-normalizing P(t)_b, and the
// SPMI transform F' = log(n·P̂_f + 1), B' = log(d·P̂_b + 1). The seeds are
// the sparse views graph.NormalizedAttrs returns; the first iteration reads
// their stored entries, so no dense copy of either is made. t < 1 runs one
// iteration.
func APMI(p, pt, rr, rc sparse.Scaled, alpha float64, t int) (f, b *mat.Dense) {
	n, d := rr.Dims()
	f, b = recurrence(p, pt, rr, rc, alpha, t, 1)
	f.NormalizeColumns()
	b.NormalizeRows()
	f.Log1pScaled(float64(n))
	b.Log1pScaled(float64(d))
	return f, b
}

// recurrence runs Lines 3-5 with nb workers over row ranges and returns
// the pre-normalization P(t)_f and P(t)_b.
func recurrence(p, pt, rr, rc sparse.Scaled, alpha float64, t, nb int) (pf, pb *mat.Dense) {
	n, d := rr.Dims()
	pf, pb = mat.New(n, d), mat.New(n, d)
	p.AxpyInto(pf, 1-alpha, nil, alpha, rr, nb)
	pt.AxpyInto(pb, 1-alpha, nil, alpha, rc, nb)
	if t <= 1 {
		return pf, pb
	}
	nextF, nextB := mat.New(n, d), mat.New(n, d)
	for l := 1; l < t; l++ {
		p.AxpyInto(nextF, 1-alpha, pf, alpha, rr, nb)
		pt.AxpyInto(nextB, 1-alpha, pb, alpha, rc, nb)
		pf, nextF = nextF, pf
		pb, nextB = nextB, pb
	}
	return pf, pb
}

// PAPMI (Algorithm 6) computes the same F', B' as APMI using nb threads.
// Lemma 4.1 makes every column of the recurrence independent of the
// others, so any partition of the work reproduces APMI's iterates bit for
// bit; with sparse seeds the natural unit is a range of rows (each worker
// writes its rows of every level), rather than the paper's attribute
// column blocks, which would need a filtered copy of the seeds per block.
// Lines 9-13 — the final normalization and SPMI transform — are
// node-partitioned as in the paper. TestPAPMIMatchesAPMI checks the result
// against APMI's.
func PAPMI(p, pt, rr, rc sparse.Scaled, alpha float64, t, nb int) (f, b *mat.Dense) {
	n, d := rr.Dims()
	if nb <= 1 || d == 0 {
		return APMI(p, pt, rr, rc, alpha, t)
	}
	pf, pb := recurrence(p, pt, rr, rc, alpha, t, nb)
	normalizeColumnsPar(pf, nb)
	mat.ParallelRanges(n, nb, func(lo, hi int) {
		v := pb.RowView(lo, hi)
		v.NormalizeRows()
	})
	nf, df := float64(n), float64(d)
	mat.ParallelRanges(n, nb, func(lo, hi int) {
		pf.RowView(lo, hi).Log1pScaled(nf)
		pb.RowView(lo, hi).Log1pScaled(df)
	})
	return pf, pb
}

// normalizeColumnsPar column-normalizes m using nb workers: per-block
// partial column sums are reduced serially, then the scaling pass is
// row-parallel. Bit-identical to Dense.NormalizeColumns up to float
// addition order of the partial sums; we keep the serial reduction in
// block order so results are deterministic for a given nb.
func normalizeColumnsPar(m *mat.Dense, nb int) {
	blocks := mat.SplitRanges(m.Rows, nb)
	partials := make([][]float64, len(blocks))
	mat.ParallelRanges(len(blocks), len(blocks), func(blo, bhi int) {
		for w := blo; w < bhi; w++ {
			partials[w] = m.RowView(blocks[w][0], blocks[w][1]).ColSums()
		}
	})
	sums := make([]float64, m.Cols)
	for _, p := range partials {
		for j, v := range p {
			sums[j] += v
		}
	}
	inv := make([]float64, m.Cols)
	for j, s := range sums {
		if s != 0 {
			inv[j] = 1 / s
		} else {
			inv[j] = 1
		}
	}
	mat.ParallelRanges(m.Rows, nb, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			for j := range row {
				row[j] *= inv[j]
			}
		}
	})
}

// AffinityFromGraph is a convenience wrapper deriving P, Pᵀ, Rr, Rc from
// g and running APMI (nb <= 1) or PAPMI (nb > 1).
func AffinityFromGraph(g *graph.Graph, alpha float64, t, nb int) (f, b *mat.Dense) {
	p, pt := g.Walk()
	rr, rc := g.NormalizedAttrs()
	if nb > 1 {
		return PAPMI(p, pt, rr, rc, alpha, t, nb)
	}
	return APMI(p, pt, rr, rc, alpha, t)
}
