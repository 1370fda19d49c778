package sparse

import (
	"fmt"

	"pane/internal/mat"
)

// Scaled is a read-only view of a CSR whose stored values are read
// normalized, never materialized: the row-normalized view reads entry
// (i, j) as m[i,j]·(1/Σ_l m[i,l]), the column-scaled view as
// m[i,j]·inv[j], and the column-normalized one as m[i,j]·(1/Σ_l t[j,l])
// for a pattern t.
// PANE's APMI seeds Rr and Rc are the first two views of the attribute
// matrix R, so they cost R's pages plus one d-vector instead of two dense
// n x d matrices; its random-walk matrices are P = D⁻¹A, the
// row-normalized view of the adjacency pattern A, and Pᵀ, the
// column-normalized view of Aᵀ by A. Each value is the single product the
// in-place mat.Dense NormalizeRows/NormalizeColumns passes compute (a
// zero-sum row or column reads as stored), so a view reads bit-identically
// to the dense matrix those passes would produce.
type Scaled struct {
	m      *CSR
	colInv []float64 // per-column factors of the column-scaled view
	colLen *CSR      // column j reads 1/(row j's length) of colLen in the column-normalized view
}

// RowNormalized returns the view of m with each row scaled by 1/(its sum).
func (m *CSR) RowNormalized() Scaled { return Scaled{m: m} }

// ColScaled returns the view of m with column j scaled by inv[j]. The view
// shares inv, which must not be mutated.
func (m *CSR) ColScaled(inv []float64) Scaled {
	if len(inv) != m.C {
		panic(fmt.Sprintf("sparse: ColScaled with %d factors for %d columns", len(inv), m.C))
	}
	return Scaled{m: m, colInv: inv}
}

// ColNormalizedBy returns the view of m, the transpose of the pattern t,
// with column j scaled by 1/(the length of row j of t): the transpose of
// t.RowNormalized(). The factor is read off t's row pointers per entry, so
// the view stores nothing.
func (m *CSR) ColNormalizedBy(t *CSR) Scaled {
	if t.R != m.C || t.C != m.R || !t.pattern {
		panic(fmt.Sprintf("sparse: ColNormalizedBy with a %dx%d CSR (pattern %v) for %d columns", t.R, t.C, t.pattern, m.C))
	}
	return Scaled{m: m, colLen: t}
}

// InvSum returns the factor a sum s normalizes by: 1/s, or 1 for a zero
// sum, which leaves an all-zero row or column as it is.
func InvSum(s float64) float64 {
	if s != 0 {
		return 1 / s
	}
	return 1
}

// Dims returns the view's shape.
func (s Scaled) Dims() (rows, cols int) { return s.m.R, s.m.C }

// row returns row i's columns and stored values (nil for a pattern)
// together with the factor every value of the row is scaled by: 1/(its
// sum, left to right) in the row-normalized view, 1 in the others.
func (s Scaled) row(i int) ([]int32, []float64, float64) {
	cols, vals := s.m.Row(i)
	if s.colInv != nil || s.colLen != nil {
		return cols, vals, 1
	}
	if vals == nil {
		return cols, nil, InvSum(float64(len(cols)))
	}
	var sum float64 // RowSum's, without looking the row up again
	for _, v := range vals {
		sum += v
	}
	return cols, vals, InvSum(sum)
}

// at returns the view's value of the k-th entry, in column c, of a row
// that row returned as vals and f.
func (s Scaled) at(vals []float64, k int, c int32, f float64) float64 {
	switch {
	case s.colInv != nil:
		f = s.colInv[c]
	case s.colLen != nil:
		f = 1 / float64(s.colLen.rowLen(int(c))) // ≥ 1: m[i,c] stored means t[c,i] is
	}
	if vals == nil { // a pattern's value 1 times f is f
		return f
	}
	return vals[k] * f
}

// ToDense materializes the view as a dense matrix. Intended for tests and
// small examples only.
func (s Scaled) ToDense() *mat.Dense {
	out := mat.New(s.m.R, s.m.C)
	for i := 0; i < s.m.R; i++ {
		cols, vals, f := s.row(i)
		row := out.Row(i)
		for k, c := range cols {
			row[c] += s.at(vals, k, c, f)
		}
	}
	return out
}
