package svd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pane/internal/mat"
)

// maxAbs returns the largest |element| of m.
func maxAbs(m *mat.Dense) float64 {
	var worst float64
	for _, v := range m.Data {
		worst = math.Max(worst, math.Abs(v))
	}
	return worst
}

// checkQR asserts the thin-QR contract on one input: Q orthonormal to
// 1e-12, Q·R = A to 1e-12 relative, R exactly upper triangular.
func checkQR(t *testing.T, a, q, r *mat.Dense) {
	t.Helper()
	m, n := a.Rows, a.Cols
	if q.Rows != m || q.Cols != n || r.Rows != n || r.Cols != n {
		t.Fatalf("shapes: Q %dx%d, R %dx%d for A %dx%d", q.Rows, q.Cols, r.Rows, r.Cols, m, n)
	}
	gram := mat.MulAT(q, q)
	for i := 0; i < n; i++ {
		gram.Set(i, i, gram.At(i, i)-1)
	}
	if d := maxAbs(gram); d > 1e-12 {
		t.Fatalf("‖QᵀQ − I‖∞ = %g", d)
	}
	if rel := errNorm(mat.Mul(q, r), a) / a.FrobeniusNorm(); rel > 1e-12 {
		t.Fatalf("‖QR − A‖/‖A‖ = %g", rel)
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R[%d,%d] = %g below the diagonal", i, j, r.At(i, j))
			}
		}
	}
}

// TestQRShapeTable runs the contract, the documented sign of the first
// diagonal entry, and agreement with the strided oracle over the shapes
// training meets: square, one row to spare, a few cache lines, and the
// 15,000 x 72 panel of the benchmark fixture.
func TestQRShapeTable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 17, 72} {
		for _, m := range []int{n, n + 1, 257, 15000} {
			if m == 15000 && testing.Short() {
				continue
			}
			t.Run(fmt.Sprintf("%dx%d", m, n), func(t *testing.T) {
				a := randomDense(rng, m, n)
				q, r := QR(a)
				checkQR(t, a, q, r)
				if a.At(0, 0)*r.At(0, 0) >= 0 {
					t.Fatalf("R[0,0] = %g should have the opposite sign of A[0,0] = %g", r.At(0, 0), a.At(0, 0))
				}
				wantQ, wantR := stridedQR(a)
				if d := q.MaxAbsDiff(wantQ); d > 1e-10*maxAbs(wantQ) {
					t.Fatalf("Q deviates from the strided oracle by %g", d)
				}
				if d := r.MaxAbsDiff(wantR); d > 1e-10*maxAbs(wantR) {
					t.Fatalf("R deviates from the strided oracle by %g", d)
				}
				if o := Orthonormalize(a); !sameBits(o.Data, q.Data) {
					t.Fatal("Orthonormalize is not QR's Q")
				}
			})
		}
	}
}

// TestQRDegenerateColumns pins what happens where a reflector has nothing
// to work with. An all-zero column stays exactly zero under the earlier
// reflectors and gets the identity (a zero on R's diagonal), here as in
// the oracle, so the two agree everywhere. A repeated or dependent column
// leaves only round-off below the diagonal; the reflector built from it is
// noise in either implementation and so is everything it touches later,
// so there the test asks for the contract, and for agreement with the
// oracle on the columns before the first such reflector.
func TestQRDegenerateColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	zeroCol := randomDense(rng, 40, 6)
	dup := randomDense(rng, 40, 6)
	for i := 0; i < 40; i++ {
		zeroCol.Set(i, 2, 0)
		dup.Set(i, 4, dup.At(i, 1))
	}
	for _, tc := range []struct {
		name  string
		a     *mat.Dense
		exact bool // every degenerate column is exactly zero
	}{
		{"zero column", zeroCol, true},
		{"leading zero", mat.FromRows([][]float64{{0, 1}, {0, 2}, {0, 3}}), true},
		{"duplicate columns", dup, false},
		{"rank 2 of 6", lowRank(rng, 15, 6, 2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			q, r := QR(a)
			checkQR(t, a, q, r)
			wantQ, wantR := stridedQR(a)
			scale := maxAbs(a)
			for j := 0; j < a.Cols; j++ {
				if math.Abs(r.At(j, j)) < 1e-8*scale {
					if !tc.exact {
						break
					}
					if r.At(j, j) != 0 {
						t.Fatalf("zero column %d left R[%d,%d] = %g", j, j, j, r.At(j, j))
					}
				}
				for i := 0; i < a.Rows; i++ {
					if d := math.Abs(q.At(i, j) - wantQ.At(i, j)); d > 1e-10 {
						t.Fatalf("Q[%d,%d] deviates from the strided oracle by %g", i, j, d)
					}
				}
				for i := 0; i <= j; i++ {
					if d := math.Abs(r.At(i, j) - wantR.At(i, j)); d > 1e-10*scale {
						t.Fatalf("R[%d,%d] deviates from the strided oracle by %g", i, j, d)
					}
				}
			}
		})
	}
	// No reflector at all: Q is the identity's leading columns, R is zero.
	q, r := QR(mat.New(5, 3))
	wantQ, _ := stridedQR(mat.New(5, 3))
	if !sameBits(q.Data, wantQ.Data) || maxAbs(r) != 0 {
		t.Fatal("all-zero input: Q, R differ from the oracle")
	}
}

// TestJacobiMatchesStrided: moving Jacobi onto a transposed working copy
// changed only the summation order inside its inner products.
func TestJacobiMatchesStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, shape := range [][2]int{{12, 8}, {5, 11}, {100, 72}, {72, 100}, {9, 9}, {7, 1}} {
		a := randomDense(rng, shape[0], shape[1])
		got, want := Jacobi(a), stridedJacobi(a)
		for i := range want.S {
			if math.Abs(got.S[i]-want.S[i]) > 1e-12*want.S[0] {
				t.Fatalf("%v: S[%d] = %v, strided %v", shape, i, got.S[i], want.S[i])
			}
		}
		if d := got.U.MaxAbsDiff(want.U); d > 1e-12 {
			t.Fatalf("%v: U deviates by %g", shape, d)
		}
		if d := got.V.MaxAbsDiff(want.V); d > 1e-12 {
			t.Fatalf("%v: V deviates by %g", shape, d)
		}
	}
}
