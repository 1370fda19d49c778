// Package svd provides the dense decompositions PANE's solver needs:
// Householder QR, one-sided Jacobi SVD for small matrices, and a
// randomized truncated SVD (subspace iteration in the style of
// Musco & Musco, NeurIPS 2015 — reference [30] of the paper) for the tall
// n x d affinity matrices. Everything is stdlib-only.
package svd

import "pane/internal/mat"

// qrPanel is how many consecutive reflectors are applied to a trailing row
// while it is resident: a row of the 15,000-row panels training factors is
// 120 KB, so 8 reflector rows and the row they are applied to are 1.1 MB —
// half of a 2 MB L2 — and the trailing rows stream from L3 once per 8
// reflectors instead of once per reflector (68 → 55 ms at 15,000 x 72).
// Each row still meets the reflectors one at a time and in the same
// order, so the width changes no bit of the result.
const qrPanel = 8

// QR computes a thin QR factorization of a (m x n, m >= n) using
// Householder reflections: a = q·r with q having orthonormal columns
// (m x n) and rr upper triangular (n x n). Reflector k maps column k to
// −sign(a_kk)·‖·‖ e_k, so a nonzero diagonal entry of rr has the opposite
// sign of the entry it replaced; a column that is already zero from the
// diagonal down gets no reflector and a zero on the diagonal.
//
// Layout. Every step of Householder QR is a pass down a COLUMN — the norm
// of column k, v_kᵀ·a_j and a_j −= s·v_k for each trailing column j — and
// in a row-major m x n matrix consecutive entries of a column are n·8
// bytes apart: one cache line fetched per element. So the factorization
// runs on a transposed working copy in which column k of a is row k, and
// each of those passes is one mat.Dot or mat.AxpyVec over a contiguous
// length-(m−k) slice; Q is accumulated the same way and transposed once on
// the way out.
//
// Work. Factoring and forming Q cost 2·(2mn² − 2n³/3) flops, 0.31 Gflop
// for the 15,000 x 72 panels training spends its time on. The strided walk
// delivered that at 0.15 Gflop/s. Here every reflector application reads
// v and the trailing row for the dot and reads both and writes the row for
// the axpy — 40 bytes per 4 flops against a working copy (8.6 MB at that
// shape) larger than L2 — so the factorization runs at the kernels'
// streaming rate, about 5 Gflop/s on the reference box against 8 for
// mat.MulInto on the same shape. That is about one CCD half-sweep
// of core.PSVDCCD per QR and no longer what training waits for, so a
// compact-WY form with a GEMM trailing update was not built.
func QR(a *mat.Dense) (q, rr *mat.Dense) {
	wt, betas := householder(a)
	n := a.Cols
	rr = mat.New(n, n)
	for j := 0; j < n; j++ {
		// Column j of R is the head of row j of the transposed copy.
		for i, v := range wt.Row(j)[:j+1] {
			rr.Set(i, j, v)
		}
	}
	return formQ(wt, betas), rr
}

// Orthonormalize returns a matrix with orthonormal columns spanning the
// column space of a (the Q factor of a thin QR; R is never formed).
func Orthonormalize(a *mat.Dense) *mat.Dense {
	return formQ(householder(a))
}

// householder reduces aᵀ in a fresh n x m copy: on return row j holds
// column j of R in its first j+1 entries, and row k holds reflector k
// (v_k[k] = 1 implicit) in entries k+1.., with H_k = I − betas[k]·v_k·v_kᵀ.
func householder(a *mat.Dense) (wt *mat.Dense, betas []float64) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("svd: QR requires rows >= cols")
	}
	wt = a.T()
	betas = make([]float64, n)
	for k0 := 0; k0 < n; k0 += qrPanel {
		k1 := min(k0+qrPanel, n)
		// Every row from the panel on takes the panel's reflectors that
		// precede it; a row inside the panel then becomes the next one.
		for j := k0; j < n; j++ {
			for k := k0; k < min(j, k1); k++ {
				reflect(betas[k], wt.Row(k)[k+1:], wt.Row(j)[k:])
			}
			if j < k1 {
				betas[j] = reflector(wt.Row(j)[j:])
			}
		}
	}
	return wt, betas
}

// formQ accumulates the thin Q by applying the reflectors to the first n
// columns of the identity, in reverse, on the same transposed layout.
func formQ(wt *mat.Dense, betas []float64) *mat.Dense {
	n, m := wt.Rows, wt.Cols
	qt := mat.New(n, m)
	for j := 0; j < n; j++ {
		qt.Set(j, j, 1)
	}
	// Columns j < k of the identity are still e_j, zero from row k down,
	// and a reflector leaves such a column exactly as it is.
	for k1 := n; k1 > 0; k1 -= qrPanel {
		k0 := max(k1-qrPanel, 0)
		for j := k0; j < n; j++ {
			for k := min(j, k1-1); k >= k0; k-- {
				reflect(betas[k], wt.Row(k)[k+1:], qt.Row(j)[k:])
			}
		}
	}
	return qt.T()
}

// reflector turns col (column k of the panel from the diagonal down) into
// Householder reflector k: col[0] becomes the diagonal entry of R, col[1:]
// the vector v with v[0] = 1 implicit, and the returned beta its scaling.
// A zero column is left alone and gets beta = 0, the identity.
func reflector(col []float64) (beta float64) {
	norm := mat.Norm2(col)
	if norm == 0 {
		return 0
	}
	sign := 1.0
	if col[0] < 0 {
		sign = -1.0
	}
	v0 := col[0] + sign*norm
	v, inv := col[1:], 1/v0
	for i := range v {
		v[i] *= inv
	}
	col[0] = -sign * norm
	return v0 / (sign * norm)
}

// reflect applies H = I − beta·[1;v]·[1;v]ᵀ to x in place (len(x) =
// len(v)+1): s = beta·(x[0] + v·x[1:]), x[0] −= s, x[1:] −= s·v.
func reflect(beta float64, v, x []float64) {
	if beta == 0 {
		return
	}
	s := beta * (x[0] + mat.Dot(v, x[1:]))
	x[0] -= s
	mat.AxpyVec(-s, v, x[1:])
}
