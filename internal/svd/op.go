package svd

import (
	"math/rand"
	"time"

	"pane/internal/mat"
)

// Op is an implicitly represented r x c linear operator: anything that can
// multiply a dense block from the left (A·X) and from the transposed left
// (Aᵀ·X). Randomized SVD only needs these two products, which lets
// callers factorize matrices — like NRP's personalized-PageRank proximity
// — that would be quadratically large if materialized.
type Op interface {
	Dims() (r, c int)
	// Apply returns A·x, where x is c x k.
	Apply(x *mat.Dense) *mat.Dense
	// ApplyT returns Aᵀ·x, where x is r x k.
	ApplyT(x *mat.Dense) *mat.Dense
}

// DenseOp adapts a dense matrix to the Op interface.
type DenseOp struct {
	M  *mat.Dense
	NB int
}

// Dims implements Op.
func (o DenseOp) Dims() (int, int) { return o.M.Rows, o.M.Cols }

// Apply implements Op.
func (o DenseOp) Apply(x *mat.Dense) *mat.Dense { return mat.ParMul(o.M, x, o.nb()) }

// ApplyT implements Op: a row-parallel pass over M with one partial
// accumulator per worker, merged in worker order at the end, so every
// output element keeps a single writer and a fixed summation order.
func (o DenseOp) ApplyT(x *mat.Dense) *mat.Dense {
	nb := o.nb()
	if nb <= 1 {
		return mat.MulAT(o.M, x)
	}
	ranges := mat.SplitRanges(o.M.Rows, nb)
	parts := make([]*mat.Dense, len(ranges))
	mat.ParallelRanges(len(ranges), len(ranges), func(lo, hi int) {
		for w := lo; w < hi; w++ {
			rg := ranges[w]
			parts[w] = mat.MulAT(o.M.RowView(rg[0], rg[1]), x.RowView(rg[0], rg[1]))
		}
	})
	out := mat.New(o.M.Cols, x.Cols)
	for _, p := range parts {
		out.AddScaled(1, p)
	}
	return out
}

func (o DenseOp) nb() int {
	if o.NB < 1 {
		return 1
	}
	return o.NB
}

// RandSVDOp is the subspace-iteration loop behind RandSVD, for an
// implicit operator: every product with A or Aᵀ goes through op. See
// RandSVD for the algorithm.
func RandSVDOp(op Op, k, q int, rng *rand.Rand, nb int) Result {
	r, c := op.Dims()
	p := k + Oversample
	if p > c {
		p = c
	}
	if p > r {
		p = r
	}
	if k > p {
		k = p
	}
	var tm StageTime
	t := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d += now.Sub(t)
		t = now
	}
	omega := mat.New(c, p)
	for i := range omega.Data {
		omega.Data[i] = rng.NormFloat64()
	}
	y := op.Apply(omega)
	lap(&tm.Sketch)
	qm := Orthonormalize(y)
	lap(&tm.QR)
	for it := 0; it < q; it++ {
		y = op.Apply(op.ApplyT(qm))
		lap(&tm.Sketch)
		qm = Orthonormalize(y)
		lap(&tm.QR)
	}
	// b = qmᵀ·A = (Aᵀ·qm)ᵀ, computed through ApplyT to stay implicit.
	bt := op.ApplyT(qm) // c x p
	small := Jacobi(bt.T())
	u := mat.ParMul(qm, small.U, nb)
	lap(&tm.Project)
	return Result{U: u, S: small.S, V: small.V, Time: tm}.Truncate(k)
}
