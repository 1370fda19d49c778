package svd

import (
	"math"
	"math/rand"
	"testing"

	"pane/internal/mat"
)

func TestDenseOpMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 14, 9)
	op := DenseOp{M: a}
	x := randomDense(rng, 9, 4)
	if op.Apply(x).MaxAbsDiff(mat.Mul(a, x)) > 1e-12 {
		t.Fatal("Apply differs from dense product")
	}
	y := randomDense(rng, 14, 3)
	if op.ApplyT(y).MaxAbsDiff(mat.Mul(a.T(), y)) > 1e-12 {
		t.Fatal("ApplyT differs from dense product")
	}
	r, c := op.Dims()
	if r != 14 || c != 9 {
		t.Fatal("Dims wrong")
	}
}

func TestRandSVDOpMatchesRandSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := lowRank(rng, 40, 18, 5)
	direct := RandSVD(a, 5, 3, rand.New(rand.NewSource(7)), 1)
	viaOp := RandSVDOp(DenseOp{M: a}, 5, 3, rand.New(rand.NewSource(7)), 1)
	// Same seed, same sketch, same algorithm: reconstructions must agree.
	if direct.Reconstruct().MaxAbsDiff(viaOp.Reconstruct()) > 1e-7 {
		t.Fatal("operator-based RandSVD deviates from dense RandSVD")
	}
	for i := range direct.S {
		if math.Abs(direct.S[i]-viaOp.S[i]) > 1e-7 {
			t.Fatal("singular values deviate")
		}
	}
}

func TestRandSVDOpRecoversLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := lowRank(rng, 50, 20, 3)
	res := RandSVDOp(DenseOp{M: a}, 3, 3, rng, 2)
	if res.Reconstruct().MaxAbsDiff(a) > 1e-7 {
		t.Fatal("failed to recover rank-3 matrix through the operator path")
	}
}

// randSVDDense is the dense subspace-iteration loop RandSVD carried before
// it became the DenseOp case of RandSVDOp, kept verbatim (buffers reused,
// the projection formed as Qᵀ·a rather than (aᵀ·Q)ᵀ) as the oracle for
// TestRandSVDIsDenseOpCase.
func randSVDDense(a *mat.Dense, k, q int, rng *rand.Rand, nb int) Result {
	r, c := a.Rows, a.Cols
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
	mulATInto := func(dst, a, b *mat.Dense) {
		if nb <= 1 {
			dst.CopyFrom(mat.MulAT(a, b))
			return
		}
		ranges := mat.SplitRanges(a.Rows, nb)
		parts := make([]*mat.Dense, len(ranges))
		mat.ParallelRanges(len(ranges), len(ranges), func(lo, hi int) {
			for w := lo; w < hi; w++ {
				rg := ranges[w]
				parts[w] = mat.MulAT(a.RowView(rg[0], rg[1]), b.RowView(rg[0], rg[1]))
			}
		})
		dst.Zero()
		for _, p := range parts {
			dst.AddScaled(1, p)
		}
	}
	omega := mat.New(c, p)
	for i := range omega.Data {
		omega.Data[i] = rng.NormFloat64()
	}
	y := mat.New(r, p)
	mat.ParMulInto(y, a, omega, nb)
	qm := Orthonormalize(y)
	z := mat.New(c, p)
	for it := 0; it < q; it++ {
		mulATInto(z, a, qm)
		mat.ParMulInto(y, a, z, nb)
		qm = Orthonormalize(y)
	}
	b := mat.New(p, c)
	mulATInto(b, qm, a) // b = qmᵀ · a
	small := Jacobi(b)
	u := mat.ParMul(qm, small.U, nb)
	return Result{U: u, S: small.S, V: small.V}.Truncate(k)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRandSVDIsDenseOpCase pins the merge of the two subspace-iteration
// loops: RandSVD through DenseOp returns the bits the dedicated dense loop
// returned, at every worker count, on tall, wide and rank-deficient input.
func TestRandSVDIsDenseOpCase(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inputs := map[string]*mat.Dense{
		"tall":     randomDense(rng, 300, 40),
		"wide":     randomDense(rng, 24, 90),
		"low-rank": lowRank(rng, 120, 30, 5),
	}
	for name, a := range inputs {
		for _, nb := range []int{1, 2, 4} {
			for _, q := range []int{0, 2} {
				want := randSVDDense(a, 8, q, rand.New(rand.NewSource(5)), nb)
				got := RandSVD(a, 8, q, rand.New(rand.NewSource(5)), nb)
				if !sameBits(got.U.Data, want.U.Data) || !sameBits(got.S, want.S) || !sameBits(got.V.Data, want.V.Data) {
					t.Fatalf("%s nb=%d q=%d: RandSVD via DenseOp is not bit-identical to the dense loop", name, nb, q)
				}
			}
		}
	}
}
