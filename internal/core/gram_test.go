package core

import (
	"math"
	"math/rand"
	"testing"

	"pane/internal/mat"
)

// randomDense fills an r x c matrix with N(0,1) entries.
func randomDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestGramDeltaApplyMatchesFullTransform checks that correcting
// Z_old = Xb·G_old with the low-rank delta reproduces Z_new = Xb·G_new
// to float round-off, for deltas that move only the listed attr rows.
func TestGramDeltaApplyMatchesFullTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 12 + rng.Intn(20)
		d := 6 + rng.Intn(10)
		k2 := 4 + rng.Intn(6)
		nb := 1 + rng.Intn(3)
		xb := randomDense(rng, n, k2)
		yOld := randomDense(rng, d, k2)
		yNew := mat.New(d, k2)
		copy(yNew.Data, yOld.Data)
		nTouch := 1 + rng.Intn(3)
		attrs := rng.Perm(d)[:nTouch]
		for _, r := range attrs {
			for j := range yNew.Row(r) {
				yNew.Row(r)[j] += rng.NormFloat64()
			}
		}

		zOld := mat.ParMul(xb, mat.MulAT(yOld, yOld), 1)
		zWant := mat.ParMul(xb, mat.MulAT(yNew, yNew), 1)

		gd, err := NewGramDelta(yOld, yNew, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := gd.Rank(), 2*nTouch; got != want {
			t.Fatalf("trial %d: rank %d, want %d", trial, got, want)
		}
		z := mat.New(n, k2)
		copy(z.Data, zOld.Data)
		gd.Apply(z, xb.Paged(), 0, nb)

		scale := 0.0
		for _, v := range zWant.Data {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i, v := range z.Data {
			if math.Abs(v-zWant.Data[i]) > 1e-10*(1+scale) {
				t.Fatalf("trial %d: corrected z[%d] = %v, want %v", trial, i, v, zWant.Data[i])
			}
		}
	}
}

// TestGramDeltaApplyBlock checks that applying to a sub-block with a row
// offset corrects exactly the rows [lo, lo+z.Rows) of the full matrix.
func TestGramDeltaApplyBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n, d, k2 := 20, 8, 6
	xb := randomDense(rng, n, k2)
	yOld := randomDense(rng, d, k2)
	yNew := mat.New(d, k2)
	copy(yNew.Data, yOld.Data)
	attrs := []int{2, 5}
	for _, r := range attrs {
		for j := range yNew.Row(r) {
			yNew.Row(r)[j] += rng.NormFloat64()
		}
	}
	gd, err := NewGramDelta(yOld, yNew, attrs)
	if err != nil {
		t.Fatal(err)
	}
	full := mat.ParMul(xb, mat.MulAT(yOld, yOld), 1)
	gd.Apply(full, xb.Paged(), 0, 2)

	lo, hi := 7, 15
	block := mat.New(hi-lo, k2)
	base := mat.ParMul(xb, mat.MulAT(yOld, yOld), 1)
	for j := lo; j < hi; j++ {
		copy(block.Row(j-lo), base.Row(j))
	}
	gd.Apply(block, xb.Paged(), lo, 1)
	for j := lo; j < hi; j++ {
		for p, v := range block.Row(j - lo) {
			if v != full.Row(j)[p] {
				t.Fatalf("block row %d differs from full apply", j)
			}
		}
	}
}

// TestGramDeltaErrors covers the constructor's validation paths and
// Apply's panics.
func TestGramDeltaErrors(t *testing.T) {
	yOld := mat.New(4, 3)
	yNew := mat.New(4, 3)
	if _, err := NewGramDelta(yOld, mat.New(5, 3), nil); err == nil {
		t.Fatal("mismatched shapes should error")
	}
	if _, err := NewGramDelta(yOld, yNew, []int{4}); err == nil {
		t.Fatal("out-of-range attr should error")
	}
	gd, err := NewGramDelta(yOld, yNew, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("width mismatch", func() { gd.Apply(mat.New(2, 4), mat.New(6, 4).Paged(), 0, 1) })
	mustPanic("row overflow", func() { gd.Apply(mat.New(4, 3), mat.New(6, 3).Paged(), 3, 1) })
	mustPanic("negative lo", func() { gd.Apply(mat.New(2, 3), mat.New(6, 3).Paged(), -1, 1) })
}
