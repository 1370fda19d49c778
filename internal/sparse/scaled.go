package sparse

import (
	"fmt"

	"pane/internal/mat"
)

// Scaled is a read-only view of a CSR whose stored values are read
// normalized, never materialized: the row-normalized view reads entry
// (i, j) as m[i,j]·(1/Σ_l m[i,l]), the column-scaled view as
// m[i,j]·inv[j]. PANE's APMI seeds Rr and Rc are these two views of the
// attribute matrix R, so they cost R's pages plus one d-vector instead of
// two dense n x d matrices. Each value is the single product the in-place
// mat.Dense NormalizeRows/NormalizeColumns passes compute (a zero-sum row
// or column reads as stored), so a view reads bit-identically to the dense
// matrix those passes would produce.
type Scaled struct {
	m      *CSR
	colInv []float64 // per-column factors; nil for the row-normalized view
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

// row returns row i's columns and stored values together with the factor
// every value of the row is scaled by: 1/(its sum, left to right) in the
// row-normalized view, 1 in the column-scaled one.
func (s Scaled) row(i int) ([]int32, []float64, float64) {
	cols, vals := s.m.Row(i)
	if s.colInv != nil {
		return cols, vals, 1
	}
	return cols, vals, InvSum(s.m.RowSum(i))
}

// at returns the view's value of stored value v in column c of a row whose
// factor row returned as f.
func (s Scaled) at(v float64, c int32, f float64) float64 {
	if s.colInv != nil {
		return v * s.colInv[c]
	}
	return v * f
}

// ToDense materializes the view as a dense matrix. Intended for tests and
// small examples only.
func (s Scaled) ToDense() *mat.Dense {
	out := mat.New(s.m.R, s.m.C)
	for i := 0; i < s.m.R; i++ {
		cols, vals, f := s.row(i)
		row := out.Row(i)
		for k, c := range cols {
			row[c] += s.at(vals[k], c, f)
		}
	}
	return out
}
