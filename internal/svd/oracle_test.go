package svd

import (
	"math"
	"sort"

	"pane/internal/mat"
)

// The two functions below are verbatim copies of the QR and Jacobi bodies
// this package shipped before both moved to a transposed working copy:
// textbook column-by-column loops that walk a row-major matrix with
// At(i,k)/Set(i,j) at stride Cols. They are the oracles the kernel-backed
// versions are compared against (same reflectors and sign convention, same
// rotations; only the summation order inside the inner products differs).

// stridedQR is the former QR.
func stridedQR(a *mat.Dense) (q, rr *mat.Dense) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("svd: QR requires rows >= cols")
	}
	// Work on a copy; w holds the Householder vectors in its lower part.
	w := a.Clone()
	betas := make([]float64, n)
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
	// Extract R.
	rr = mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			rr.Set(i, j, w.At(i, j))
		}
	}
	// Accumulate Q by applying the reflectors to the identity, in reverse.
	q = mat.New(m, n)
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
	return q, rr
}

// stridedJacobi is the former Jacobi.
func stridedJacobi(a *mat.Dense) Result {
	m, n := a.Rows, a.Cols
	if m < n {
		// Decompose the transpose and swap factors: a = U S Vᵀ  <=>
		// aᵀ = V S Uᵀ.
		res := stridedJacobi(a.T())
		return Result{U: res.V, S: res.S, V: res.U}
	}
	u := a.Clone()
	v := mat.New(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const (
		maxSweeps = 60
		eps       = 1e-14
	)
	// Column views are easier on the transpose: work with columns of u via
	// strided access. n is small (k/2 + oversample), so this is fine.
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					app += up * up
					aqq += uq * uq
					apq += up * uq
				}
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq) {
					continue
				}
				off += apq * apq
				// Compute the Jacobi rotation that zeroes apq.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					u.Set(i, p, c*up-s*uq)
					u.Set(i, q, s*up+c*uq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if off == 0 {
			break
		}
	}
	// Extract singular values as column norms of u, normalize columns.
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += u.At(i, j) * u.At(i, j)
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			inv := 1 / norm
			for i := 0; i < m; i++ {
				u.Set(i, j, u.At(i, j)*inv)
			}
		}
	}
	// Sort by descending singular value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return s[idx[i]] > s[idx[j]] })
	us := mat.New(m, n)
	vs := mat.New(n, n)
	ss := make([]float64, n)
	for newJ, oldJ := range idx {
		ss[newJ] = s[oldJ]
		for i := 0; i < m; i++ {
			us.Set(i, newJ, u.At(i, oldJ))
		}
		for i := 0; i < n; i++ {
			vs.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return Result{U: us, S: ss, V: vs}
}
