package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pane/internal/mat"
)

func randomCSR(rng *rand.Rand, r, c int, density float64) *CSR {
	var entries []Entry
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				entries = append(entries, Entry{i, j, rng.NormFloat64()})
			}
		}
	}
	return NewCSR(r, c, entries)
}

func randomDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewCSRBasic(t *testing.T) {
	m := NewCSR(3, 4, []Entry{{0, 1, 2}, {2, 3, 5}, {0, 0, 1}})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if m.At(0, 1) != 2 || m.At(2, 3) != 5 || m.At(0, 0) != 1 {
		t.Fatal("wrong stored values")
	}
	if m.At(1, 1) != 0 {
		t.Fatal("missing entry should read 0")
	}
}

func TestNewCSRDuplicatesSummed(t *testing.T) {
	m := NewCSR(2, 2, []Entry{{0, 0, 1}, {0, 0, 2.5}, {1, 1, -1}, {1, 1, 1}})
	if m.At(0, 0) != 3.5 {
		t.Fatalf("duplicate sum = %v, want 3.5", m.At(0, 0))
	}
	if m.At(1, 1) != 0 {
		t.Fatalf("duplicate cancel = %v, want 0", m.At(1, 1))
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ after merge = %d, want 2", m.NNZ())
	}
}

func TestNewCSRRowsSorted(t *testing.T) {
	m := NewCSR(1, 5, []Entry{{0, 4, 1}, {0, 0, 2}, {0, 2, 3}})
	cols, _ := m.Row(0)
	for k := 1; k < len(cols); k++ {
		if cols[k-1] >= cols[k] {
			t.Fatalf("row not sorted: %v", cols)
		}
	}
}

func TestNewCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCSR(2, 2, []Entry{{2, 0, 1}})
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomCSR(rng, 13, 9, 0.3)
	mt := m.T()
	if mt.R != 9 || mt.C != 13 {
		t.Fatalf("transpose shape %dx%d", mt.R, mt.C)
	}
	d := m.ToDense()
	dt := mt.ToDense()
	if !dt.Equal(d.T(), 0) {
		t.Fatal("CSR transpose differs from dense transpose")
	}
	if !mt.T().ToDense().Equal(d, 0) {
		t.Fatal("double transpose not identity")
	}
}

func TestMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomCSR(rng, 17, 23, 0.2)
	x := randomDense(rng, 23, 6)
	got := m.MulDense(x)
	want := mat.Mul(m.ToDense(), x)
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Fatal("sparse MulDense differs from dense multiply")
	}
}

func TestParMulDenseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomCSR(rng, 41, 31, 0.15)
	x := randomDense(rng, 31, 5)
	want := m.MulDense(x)
	for _, nb := range []int{1, 2, 3, 8, 64} {
		got := m.ParMulDense(x, nb)
		if !got.Equal(want, 0) {
			t.Fatalf("nb=%d: parallel result differs", nb)
		}
	}
}

func TestAxpyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := randomCSR(rng, 11, 11, 0.3)
	x := randomDense(rng, 11, 4)
	y := randomDense(rng, 11, 4)
	a, b := 0.85, 0.15
	want := m.MulDense(x)
	want.Scale(a)
	want.AddScaled(b, y)
	for _, nb := range []int{1, 3} {
		dst := mat.New(11, 4)
		m.AxpyInto(dst, a, x, b, y, nb)
		if dst.MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("nb=%d: AxpyInto differs", nb)
		}
	}
}

func TestAxpyIntoAliasedY(t *testing.T) {
	// dst == y aliasing must be safe: this is how APMI would update in
	// place if it chose to.
	rng := rand.New(rand.NewSource(11))
	m := randomCSR(rng, 9, 9, 0.4)
	x := randomDense(rng, 9, 3)
	y := randomDense(rng, 9, 3)
	want := m.MulDense(x)
	want.Scale(0.5)
	want.AddScaled(0.5, y)
	m.AxpyInto(y, 0.5, x, 0.5, y, 1)
	if y.MaxAbsDiff(want) > 1e-12 {
		t.Fatal("aliased AxpyInto differs")
	}
}

func TestScaleRowsAndSums(t *testing.T) {
	m := NewCSR(2, 3, []Entry{{0, 0, 2}, {0, 2, 4}, {1, 1, 3}})
	if m.RowSum(0) != 6 || m.RowSum(1) != 3 {
		t.Fatalf("RowSum = %v, %v", m.RowSum(0), m.RowSum(1))
	}
	cs := m.ColSums()
	if cs[0] != 2 || cs[1] != 3 || cs[2] != 4 {
		t.Fatalf("ColSums = %v", cs)
	}
	s := m.ScaleRows([]float64{0.5, 2})
	if s.At(0, 2) != 2 || s.At(1, 1) != 6 {
		t.Fatal("ScaleRows wrong")
	}
	if m.At(0, 2) != 4 || m.At(1, 1) != 3 {
		t.Fatal("ScaleRows wrote through to its receiver")
	}
}

func TestMulDenseColsMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randomCSR(rng, 10, 14, 0.25)
	x := randomDense(rng, 14, 8)
	full := m.MulDense(x)
	blk := m.MulDenseCols(x, 2, 6)
	want := full.ColSlice(2, 6)
	if blk.MaxAbsDiff(want) > 1e-12 {
		t.Fatal("MulDenseCols differs from sliced full product")
	}
}

func TestPropertyTransposeMulAgree(t *testing.T) {
	// Property: (Mᵀ x) computed via transpose CSR equals dense (Mᵀ)x.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(12)
		c := 2 + rng.Intn(12)
		m := randomCSR(rng, r, c, 0.3)
		x := randomDense(rng, r, 1+rng.Intn(4))
		got := m.T().MulDense(x)
		want := mat.Mul(m.ToDense().T(), x)
		return got.MaxAbsDiff(want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRowStochasticPreservesMass(t *testing.T) {
	// A row-stochastic sparse matrix applied to a column of ones yields
	// ones for rows with outgoing mass — the random-walk invariant APMI
	// relies on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		var entries []Entry
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					entries = append(entries, Entry{i, j, math.Abs(rng.NormFloat64())})
				}
			}
		}
		m := NewCSR(n, n, entries)
		sums := make([]float64, n)
		inv := make([]float64, n)
		for i := range sums {
			if sums[i] = m.RowSum(i); sums[i] > 0 {
				inv[i] = 1 / sums[i]
			}
		}
		m = m.ScaleRows(inv)
		ones := mat.New(n, 1)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		out := m.MulDense(ones)
		for i := 0; i < n; i++ {
			if sums[i] > 0 {
				if d := out.At(i, 0) - 1; d > 1e-9 || d < -1e-9 {
					return false
				}
			} else if out.At(i, 0) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
