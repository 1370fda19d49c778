package mat

import (
	"math"
	"math/rand"
	"testing"
)

// fillKernelVec fills dst with a NaN-free mix of ordinary values and
// edge cases: large magnitudes, subnormals, exact zeros of both signs,
// and sign flips — the inputs most likely to expose an accumulation-order
// or rounding difference between kernel twins.
func fillKernelVec(rng *rand.Rand, dst []float64) {
	for i := range dst {
		switch rng.Intn(10) {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = math.Copysign(0, -1)
		case 2:
			dst[i] = math.Ldexp(1+rng.Float64(), 900) * sign(rng)
		case 3:
			dst[i] = math.Ldexp(rng.Float64(), -1060) * sign(rng) // subnormal territory after multiply
		case 4:
			dst[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(16)) * sign(rng)
		default:
			dst[i] = (rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(40)-20)
		}
	}
}

func sign(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

// TestDotMatchesGenericExhaustive drives the dispatched Dot against
// DotGeneric over every length 0..129 at every slice offset 0..3 (so the
// assembly sees every alignment of both operands) and demands bitwise
// equality. On noasm or non-AVX2 builds both sides run the generic
// kernel and the test pins the dispatch wrapper's tail handling.
func TestDotMatchesGenericExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const maxN, maxOff = 129, 4
	backA := make([]float64, maxN+maxOff)
	backB := make([]float64, maxN+maxOff)
	for n := 0; n <= maxN; n++ {
		for offA := 0; offA < maxOff; offA++ {
			for offB := 0; offB < maxOff; offB++ {
				fillKernelVec(rng, backA)
				fillKernelVec(rng, backB)
				a := backA[offA : offA+n]
				b := backB[offB : offB+n]
				got := Dot(a, b)
				want := DotGeneric(a, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Dot(n=%d, offA=%d, offB=%d) = %x, generic %x", n, offA, offB, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestDotGoldenVector pins the canonical summation order itself: one
// fixed input whose dot product differs in the last bits under any other
// association (ascending, pairwise, fused), with the bits every kernel on
// every build must produce.
func TestDotGoldenVector(t *testing.T) {
	const n = 64
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = 1 / float64(i+3)
		b[i] = float64(i*i%17) - 7.25
	}
	const want = 0xbfe58ab98f68638a
	got := []float64{Dot(a, b), DotGeneric(a, b)}
	for i, g := range got {
		if math.Float64bits(g) != want {
			t.Fatalf("kernel %d: %x, want %x", i, math.Float64bits(g), uint64(want))
		}
	}
	ascending := 0.0
	for i := range a {
		ascending += a[i] * b[i]
	}
	if math.Float64bits(ascending) == want {
		t.Fatal("the golden input does not tell the canonical order from an ascending sum")
	}
}

// TestAxpyMatchesGenericExhaustive is the same sweep for AxpyVec.
func TestAxpyMatchesGenericExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const maxN, maxOff = 129, 4
	backX := make([]float64, maxN+maxOff)
	backY := make([]float64, maxN+maxOff)
	for n := 0; n <= maxN; n++ {
		for off := 0; off < maxOff; off++ {
			fillKernelVec(rng, backX)
			fillKernelVec(rng, backY)
			alpha := (rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(20)-10)
			x := backX[off : off+n]
			got := append([]float64(nil), backY[:n]...)
			want := append([]float64(nil), backY[:n]...)
			AxpyVec(alpha, x, got)
			AxpyGeneric(want, alpha, x)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("AxpyVec(n=%d, off=%d)[%d] = %x, generic %x", n, off, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestMulIntoMatchesGenericExhaustive sweeps the GEMM panel kernel over
// every (k, n) shape 0..17 plus a few larger shapes that exercise the
// 4-row panels together with 4-wide column blocks and both remainders.
func TestMulIntoMatchesGenericExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shapes := make([][3]int, 0, 19*19+4)
	for k := 0; k <= 18; k++ {
		for n := 0; n <= 18; n++ {
			shapes = append(shapes, [3]int{3, k, n})
		}
	}
	shapes = append(shapes, [3]int{7, 33, 129}, [3]int{1, 64, 64}, [3]int{5, 129, 33}, [3]int{2, 4, 1})
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := New(m, k), New(k, n)
		fillKernelVec(rng, a.Data)
		fillKernelVec(rng, b.Data)
		got, want := New(m, n), New(m, n)
		MulInto(got, a, b)
		MulIntoGeneric(want, a, b)
		for i := range got.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("MulInto(%dx%d * %dx%d) elem %d = %x, generic %x", m, k, k, n, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
		// MulRowInto must agree row-for-row with the full product.
		row := make([]float64, n)
		for i := 0; i < m; i++ {
			MulRowInto(row, a.Row(i), b)
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(want.Data[i*n+j]) {
					t.Fatalf("MulRowInto row %d col %d = %x, full product %x", i, j, math.Float64bits(v), math.Float64bits(want.Data[i*n+j]))
				}
			}
		}
	}
}

// TestDotPanicMessages pins the length-mismatch diagnostics, which now
// include both lengths like the rest of the package.
func TestDotPanicMessages(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
		want string
	}{
		{"dot", func() { Dot(make([]float64, 3), make([]float64, 5)) }, "mat: Dot length mismatch 3 vs 5"},
		{"axpy", func() { AxpyVec(2, make([]float64, 4), make([]float64, 2)) }, "mat: AxpyVec length mismatch 4 vs 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r != tc.want {
					t.Fatalf("panic = %v, want %q", r, tc.want)
				}
			}()
			tc.fn()
		})
	}
}

// TestKernelISAs sanity-checks the introspection hook: every op is
// reported, and the value is one of the known ISA names.
func TestKernelISAs(t *testing.T) {
	isas := KernelISAs()
	for _, op := range []string{"dot", "axpy", "gemm"} {
		isa, ok := isas[op]
		if !ok {
			t.Fatalf("KernelISAs missing op %q", op)
		}
		if isa != ISAGeneric && isa != ISAAVX2 && isa != ISANEON {
			t.Fatalf("KernelISAs[%q] = %q, not a known ISA", op, isa)
		}
	}
}
