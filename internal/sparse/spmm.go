package sparse

import (
	"fmt"

	"pane/internal/mat"
)

// MulDense returns m * x for a dense right-hand side, serially.
// m is R x C, x is C x k, the result is R x k.
func (m *CSR) MulDense(x *mat.Dense) *mat.Dense {
	out := mat.New(m.R, x.Cols)
	m.MulDenseInto(out, x)
	return out
}

// MulDenseInto computes dst = m * x, overwriting dst. dst must be R x k
// and must not alias x.
func (m *CSR) MulDenseInto(dst, x *mat.Dense) {
	if m.C != x.Rows {
		panic(fmt.Sprintf("sparse: MulDense dimension mismatch %dx%d * %dx%d", m.R, m.C, x.Rows, x.Cols))
	}
	if dst.Rows != m.R || dst.Cols != x.Cols {
		panic("sparse: MulDenseInto dst shape mismatch")
	}
	spmmRows(dst, m, x, 0, m.R)
}

// spmmRows computes rows [lo,hi) of dst = m*x. Each output row is a sparse
// combination of rows of x; the inner loop streams x's rows with unit
// stride, the access pattern that makes CSR·dense fast.
func spmmRows(dst *mat.Dense, m *CSR, x *mat.Dense, lo, hi int) {
	k := x.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*k : (i+1)*k]
		for p := range di {
			di[p] = 0
		}
		cols, vals := m.Row(i)
		for t, c := range cols {
			v := vals[t]
			xr := x.Data[int(c)*k : (int(c)+1)*k]
			for p, xv := range xr {
				di[p] += v * xv
			}
		}
	}
}

// ParMulDense returns m * x computed with nb workers partitioning the rows
// of m. Results are bit-identical to MulDense because each output row is
// written by exactly one worker.
func (m *CSR) ParMulDense(x *mat.Dense, nb int) *mat.Dense {
	out := mat.New(m.R, x.Cols)
	m.ParMulDenseInto(out, x, nb)
	return out
}

// ParMulDenseInto computes dst = m * x with nb workers. See ParMulDense.
func (m *CSR) ParMulDenseInto(dst, x *mat.Dense, nb int) {
	if m.C != x.Rows {
		panic(fmt.Sprintf("sparse: ParMulDense dimension mismatch %dx%d * %dx%d", m.R, m.C, x.Rows, x.Cols))
	}
	if dst.Rows != m.R || dst.Cols != x.Cols {
		panic("sparse: ParMulDenseInto dst shape mismatch")
	}
	if nb <= 1 {
		spmmRows(dst, m, x, 0, m.R)
		return
	}
	mat.ParallelRanges(m.R, nb, func(lo, hi int) {
		spmmRows(dst, m, x, lo, hi)
	})
}

// AxpyInto computes dst = a*(m*x) + b*y, fusing the SpMM with the affine
// combination that APMI's recurrence needs:
//
//	P(ℓ) = (1−α)·P·P(ℓ−1) + α·P(0)
//
// The seed P(0) is y, a sparse scaled view; x is the previous level, and
// x == nil stands for the seed itself, so the first iteration reads the
// seed's stored entries and never a dense copy of it. dst must not alias x.
func (m *CSR) AxpyInto(dst *mat.Dense, a float64, x *mat.Dense, b float64, y Scaled, nb int) {
	yr, k := y.Dims()
	xr, xc := yr, k
	if x != nil {
		xr, xc = x.Rows, x.Cols
	}
	if m.C != xr || yr != m.R || xc != k {
		panic("sparse: AxpyInto shape mismatch")
	}
	if dst.Rows != m.R || dst.Cols != k {
		panic("sparse: AxpyInto dst shape mismatch")
	}
	work := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.AxpyRowInto(dst.Data[i*k:(i+1)*k], i, a, x, b, y)
		}
	}
	if nb <= 1 {
		work(0, m.R)
		return
	}
	mat.ParallelRanges(m.R, nb, work)
}

// AxpyRowInto computes one row of AxpyInto: dst = a*(m[i,:]·x) + b*y[i,:],
// with x == nil standing for y, and dst a length-k slice. The
// incremental-APMI frontier patch re-runs single rows of the recurrence
// through this exact kernel, which is what guarantees a patched row is
// bit-identical to the same row of a full AxpyInto pass.
//
// Reading y's stored entries only is exact: every term of the recurrence
// is a non-negative product, so a skipped v·0 term is +0 and never changes
// a sum, and the terms that remain are added in the order a dense seed
// would add them.
func (m *CSR) AxpyRowInto(dst []float64, i int, a float64, x *mat.Dense, b float64, y Scaled) {
	clear(dst)
	ycols, yvals, f := y.row(i)
	for t, c := range ycols {
		dst[c] = b * y.at(yvals[t], c, f)
	}
	cols, vals := m.Row(i)
	for t, c := range cols {
		v := a * vals[t]
		if x == nil {
			xcols, xvals, xf := y.row(int(c))
			for q, j := range xcols {
				dst[j] += v * y.at(xvals[q], j, xf)
			}
			continue
		}
		xr := x.Data[int(c)*x.Cols : (int(c)+1)*x.Cols]
		for p, xv := range xr {
			dst[p] += v * xv
		}
	}
}
