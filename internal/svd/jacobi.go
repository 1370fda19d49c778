package svd

import (
	"math"
	"sort"
	"time"

	"pane/internal/mat"
)

// Result holds a (possibly truncated) singular value decomposition
// a ≈ U · diag(S) · Vᵀ with U (r x k), S (k), V (c x k). Time says where a
// randomized decomposition spent its wall clock; Jacobi leaves it zero.
type Result struct {
	U    *mat.Dense
	S    []float64
	V    *mat.Dense
	Time StageTime
}

// StageTime splits one RandSVDOp call by stage: Sketch is every product
// with A and Aᵀ up to the last power iteration, QR the
// re-orthonormalizations between them, Project the projection Qᵀ·A, its
// Jacobi SVD and Q·U_B.
type StageTime struct {
	Sketch, QR, Project time.Duration
}

// Jacobi computes the full SVD of a (r x c with r >= c recommended; taller
// is cheaper) using the one-sided Jacobi method: it orthogonalizes the
// columns of a working copy by Givens rotations, which simultaneously
// builds U·diag(S) and accumulates V. One-sided Jacobi is slow for big
// matrices but simple and very accurate; PANE only ever calls it on small
// projected matrices (at most (k/2+p) x d after sketching), so simplicity
// wins.
//
// The working copy is held TRANSPOSED — row p is column p of a — so the
// three inner products and the rotation of a column pair stream two
// contiguous length-r rows (mat.Dot's canonical order, one rounding per
// product) instead of striding a row-major matrix by c: O(r·c²·sweeps)
// element visits, one cache line per eight of them rather than one each.
func Jacobi(a *mat.Dense) Result {
	if a.Rows < a.Cols {
		// a = U S Vᵀ  <=>  aᵀ = V S Uᵀ, and a's rows are aᵀ's columns: the
		// matrix already is the transposed working copy of its transpose.
		res := jacobiRows(a.Clone())
		return Result{U: res.V, S: res.S, V: res.U}
	}
	return jacobiRows(a.T())
}

// jacobiRows is Jacobi on the transposed working copy: the n rows of ut
// (length m >= n) are the columns to orthogonalize. ut is consumed.
func jacobiRows(ut *mat.Dense) Result {
	n, m := ut.Rows, ut.Cols
	vt := mat.New(n, n)
	for i := 0; i < n; i++ {
		vt.Set(i, i, 1)
	}
	const (
		maxSweeps = 60
		eps       = 1e-14
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			up := ut.Row(p)
			for q := p + 1; q < n; q++ {
				uq := ut.Row(q)
				app, aqq, apq := mat.Dot(up, up), mat.Dot(uq, uq), mat.Dot(up, uq)
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq) {
					continue
				}
				off += apq * apq
				// Compute the Jacobi rotation that zeroes apq. The explicit
				// conversions keep every product a separate rounding on
				// platforms that would otherwise fuse it into the add.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+float64(tau*tau)))
				} else {
					t = -1 / (-tau + math.Sqrt(1+float64(tau*tau)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := c * t
				rotate(up, uq, c, s)
				rotate(vt.Row(p), vt.Row(q), c, s)
			}
		}
		if off == 0 {
			break
		}
	}
	// Singular values are the row norms of ut; normalize the rows.
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		row := ut.Row(j)
		s[j] = mat.Norm2(row)
		if s[j] > 0 {
			inv := 1 / s[j]
			for i := range row {
				row[i] *= inv
			}
		}
	}
	// Sort by descending singular value, then transpose once on the way out.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return s[idx[i]] > s[idx[j]] })
	us := mat.New(n, m)
	vs := mat.New(n, n)
	ss := make([]float64, n)
	for newJ, oldJ := range idx {
		ss[newJ] = s[oldJ]
		copy(us.Row(newJ), ut.Row(oldJ))
		copy(vs.Row(newJ), vt.Row(oldJ))
	}
	return Result{U: us.T(), S: ss, V: vs.T()}
}

// rotate applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y)
// elementwise to two equal-length vectors.
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xv := range x {
		yv := y[i]
		x[i] = float64(c*xv) - float64(s*yv)
		y[i] = float64(s*xv) + float64(c*yv)
	}
}

// Truncate returns the rank-k truncation of r, sharing no storage with r.
func (r Result) Truncate(k int) Result {
	if k > len(r.S) {
		k = len(r.S)
	}
	return Result{
		U: r.U.ColSlice(0, k),
		S: append([]float64(nil), r.S[:k]...),
		V: r.V.ColSlice(0, k),
		// Stage times describe the decomposition, not the rank kept.
		Time: r.Time,
	}
}

// Reconstruct returns U · diag(S) · Vᵀ.
func (r Result) Reconstruct() *mat.Dense {
	us := r.U.Clone()
	for i := 0; i < us.Rows; i++ {
		row := us.Row(i)
		for j := range row {
			row[j] *= r.S[j]
		}
	}
	return mat.MulBT(us, r.V)
}

// UScaled returns U · diag(S), the "UΣ" product GreedyInit seeds Xf with.
func (r Result) UScaled() *mat.Dense {
	us := r.U.Clone()
	for i := 0; i < us.Rows; i++ {
		row := us.Row(i)
		for j := range row {
			row[j] *= r.S[j]
		}
	}
	return us
}
