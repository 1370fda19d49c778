// Package svd provides the dense decompositions PANE's solver needs:
// Householder QR, one-sided Jacobi SVD for small matrices, and a
// randomized truncated SVD (subspace iteration in the style of
// Musco & Musco, NeurIPS 2015 — reference [30] of the paper) for the tall
// n x d affinity matrices. Everything is stdlib-only.
package svd

import (
	"math"

	"pane/internal/mat"
)

// QR computes a thin QR factorization of a (r x c, r >= c) using
// Householder reflections: a = q·r with q having orthonormal columns
// (r x c) and rr upper triangular (c x c).
func QR(a *mat.Dense) (q, rr *mat.Dense) {
	w, betas := householder(a)
	n := a.Cols
	rr = mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			rr.Set(i, j, w.At(i, j))
		}
	}
	return formQ(w, betas), rr
}

// Orthonormalize returns a matrix with orthonormal columns spanning the
// column space of a (the Q factor of a thin QR; R is never formed).
func Orthonormalize(a *mat.Dense) *mat.Dense {
	return formQ(householder(a))
}

// householder reduces a copy of a to R in its upper triangle, leaving the
// reflector vectors (v[k] = 1 implicit) below the diagonal and their
// scalings in betas.
func householder(a *mat.Dense) (w *mat.Dense, betas []float64) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("svd: QR requires rows >= cols")
	}
	// Work on a copy; w holds the Householder vectors in its lower part.
	w = a.Clone()
	betas = make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute the Householder reflector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			v := w.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			betas[k] = 0
			continue
		}
		alpha := w.At(k, k)
		sign := 1.0
		if alpha < 0 {
			sign = -1.0
		}
		v0 := alpha + sign*norm
		// Normalize so v[k] = 1 implicitly; beta = v0 / (sign*norm) form.
		betas[k] = v0 / (sign * norm)
		inv := 1 / v0
		for i := k + 1; i < m; i++ {
			w.Set(i, k, w.At(i, k)*inv)
		}
		w.Set(k, k, -sign*norm) // R diagonal entry
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			s = w.At(k, j)
			for i := k + 1; i < m; i++ {
				s += w.At(i, k) * w.At(i, j)
			}
			s *= betas[k]
			w.Set(k, j, w.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				w.Set(i, j, w.At(i, j)-s*w.At(i, k))
			}
		}
	}
	return w, betas
}

// formQ accumulates the thin Q by applying the reflectors to the identity,
// in reverse.
func formQ(w *mat.Dense, betas []float64) *mat.Dense {
	m, n := w.Rows, w.Cols
	q := mat.New(m, n)
	for j := 0; j < n; j++ {
		q.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		if betas[k] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			s := q.At(k, j)
			for i := k + 1; i < m; i++ {
				s += w.At(i, k) * q.At(i, j)
			}
			s *= betas[k]
			q.Set(k, j, q.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				q.Set(i, j, q.At(i, j)-s*w.At(i, k))
			}
		}
	}
	return q
}
