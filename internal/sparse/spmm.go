package sparse

import (
	"fmt"

	"pane/internal/mat"
)

// MulDense returns s * x for a dense right-hand side, serially.
// s is R x C, x is C x k, the result is R x k.
func (s Scaled) MulDense(x *mat.Dense) *mat.Dense { return s.ParMulDense(x, 1) }

// spmmRows computes rows [lo,hi) of dst = s*x. Each output row is a sparse
// combination of rows of x; the inner loop streams x's rows with unit
// stride, the access pattern that makes CSR·dense fast.
func spmmRows(dst *mat.Dense, s Scaled, x *mat.Dense, lo, hi int) {
	k := x.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*k : (i+1)*k]
		clear(di)
		cols, vals, f := s.row(i)
		for t, c := range cols {
			v := s.at(vals, t, c, f)
			xr := x.Data[int(c)*k : (int(c)+1)*k]
			for p, xv := range xr {
				di[p] += v * xv
			}
		}
	}
}

// ParMulDense returns s * x computed with nb workers partitioning the rows
// of s. Results are bit-identical to MulDense because each output row is
// written by exactly one worker.
func (s Scaled) ParMulDense(x *mat.Dense, nb int) *mat.Dense {
	out := mat.New(s.m.R, x.Cols)
	s.ParMulDenseInto(out, x, nb)
	return out
}

// ParMulDenseInto computes dst = s * x with nb workers, overwriting dst.
// dst must be R x k and must not alias x. See ParMulDense.
func (s Scaled) ParMulDenseInto(dst, x *mat.Dense, nb int) {
	r, c := s.Dims()
	if c != x.Rows {
		panic(fmt.Sprintf("sparse: ParMulDense dimension mismatch %dx%d * %dx%d", r, c, x.Rows, x.Cols))
	}
	if dst.Rows != r || dst.Cols != x.Cols {
		panic("sparse: ParMulDenseInto dst shape mismatch")
	}
	if nb <= 1 {
		spmmRows(dst, s, x, 0, r)
		return
	}
	mat.ParallelRanges(r, nb, func(lo, hi int) {
		spmmRows(dst, s, x, lo, hi)
	})
}

// AxpyInto computes dst = a*(s*x) + b*y, fusing the SpMM with the affine
// combination that APMI's recurrence needs:
//
//	P(ℓ) = (1−α)·P·P(ℓ−1) + α·P(0)
//
// The seed P(0) is y, a sparse scaled view; x is the previous level, and
// x == nil stands for the seed itself, so the first iteration reads the
// seed's stored entries and never a dense copy of it. dst must not alias x.
func (s Scaled) AxpyInto(dst *mat.Dense, a float64, x *mat.Dense, b float64, y Scaled, nb int) {
	r, c := s.Dims()
	yr, k := y.Dims()
	xr, xc := yr, k
	if x != nil {
		xr, xc = x.Rows, x.Cols
	}
	if c != xr || yr != r || xc != k {
		panic("sparse: AxpyInto shape mismatch")
	}
	if dst.Rows != r || dst.Cols != k {
		panic("sparse: AxpyInto dst shape mismatch")
	}
	work := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.AxpyRowInto(dst.Data[i*k:(i+1)*k], i, a, x, b, y)
		}
	}
	if nb <= 1 {
		work(0, r)
		return
	}
	mat.ParallelRanges(r, nb, work)
}

// AxpyRowInto computes one row of AxpyInto: dst = a*(s[i,:]·x) + b*y[i,:],
// with x == nil standing for y, and dst a length-k slice. The
// incremental-APMI frontier patch re-runs single rows of the recurrence
// through this exact kernel, which is what guarantees a patched row is
// bit-identical to the same row of a full AxpyInto pass.
//
// Reading y's stored entries only is exact: every term of the recurrence
// is a non-negative product, so a skipped v·0 term is +0 and never changes
// a sum, and the terms that remain are added in the order a dense seed
// would add them.
func (s Scaled) AxpyRowInto(dst []float64, i int, a float64, x *mat.Dense, b float64, y Scaled) {
	clear(dst)
	ycols, yvals, f := y.row(i)
	for t, c := range ycols {
		dst[c] = b * y.at(yvals, t, c, f)
	}
	cols, vals, sf := s.row(i)
	for t, c := range cols {
		v := a * s.at(vals, t, c, sf)
		if x == nil {
			xcols, xvals, xf := y.row(int(c))
			for q, j := range xcols {
				dst[j] += v * y.at(xvals, q, j, xf)
			}
			continue
		}
		xr := x.Data[int(c)*x.Cols : (int(c)+1)*x.Cols]
		for p, xv := range xr {
			dst[p] += v * xv
		}
	}
}
