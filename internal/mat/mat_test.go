package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(0, 0) != 1 || m.At(2, 1) != 6 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected contents: %+v", m.Data)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestSetAndRowView(t *testing.T) {
	m := New(4, 3)
	m.Set(2, 1, 7)
	v := m.RowView(2, 4)
	if v.At(0, 1) != 7 {
		t.Fatalf("RowView did not share storage: got %v", v.At(0, 1))
	}
	v.Set(1, 2, 9)
	if m.At(3, 2) != 9 {
		t.Fatal("mutating view did not mutate parent")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomDense(rng, 37, 23)
	mt := m.T()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if mt.At(j, i) != m.At(i, j) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
	if !mt.T().Equal(m, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got.Data, want.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomDense(rng, 15, 15)
	id := New(15, 15)
	for i := 0; i < 15; i++ {
		id.Set(i, i, 1)
	}
	if !Mul(m, id).Equal(m, 1e-14) || !Mul(id, m).Equal(m, 1e-14) {
		t.Fatal("identity multiplication changed the matrix")
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestParMulMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, nb := range []int{1, 2, 3, 4, 7, 16} {
		a := randomDense(rng, 53, 31)
		b := randomDense(rng, 31, 17)
		want := Mul(a, b)
		got := ParMul(a, b, nb)
		if !got.Equal(want, 0) {
			t.Fatalf("nb=%d: ParMul differs from Mul", nb)
		}
	}
}

func TestMulATMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(rng, 29, 11)
	b := randomDense(rng, 29, 7)
	got := MulAT(a, b)
	want := Mul(a.T(), b)
	if !got.Equal(want, 1e-12) {
		t.Fatal("MulAT differs from explicit transpose multiply")
	}
}

func TestMulBTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomDense(rng, 19, 13)
	b := randomDense(rng, 21, 13)
	got := MulBT(a, b)
	want := Mul(a, b.T())
	if !got.Equal(want, 1e-12) {
		t.Fatal("MulBT differs from explicit transpose multiply")
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	// (A*B)*C == A*(B*C) up to float tolerance, via testing/quick sizes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(8)
		k := 2 + rng.Intn(8)
		l := 2 + rng.Intn(8)
		c := 2 + rng.Intn(8)
		a := randomDense(rng, r, k)
		b := randomDense(rng, k, l)
		cc := randomDense(rng, l, c)
		left := Mul(Mul(a, b), cc)
		right := Mul(a, Mul(b, cc))
		return left.MaxAbsDiff(right) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeColumns(t *testing.T) {
	m := FromRows([][]float64{{1, 0, 2}, {3, 0, 2}})
	m.NormalizeColumns()
	sums := m.ColSums()
	if math.Abs(sums[0]-1) > 1e-12 || math.Abs(sums[2]-1) > 1e-12 {
		t.Fatalf("column sums = %v, want 1 for nonzero columns", sums)
	}
	if sums[1] != 0 {
		t.Fatalf("zero column disturbed: %v", sums[1])
	}
}

func TestNormalizeRows(t *testing.T) {
	m := FromRows([][]float64{{2, 2}, {0, 0}, {1, 3}})
	m.NormalizeRows()
	if math.Abs(m.At(0, 0)-0.5) > 1e-12 || math.Abs(m.At(2, 1)-0.75) > 1e-12 {
		t.Fatalf("unexpected normalized rows: %v", m.Data)
	}
	if m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Fatal("zero row disturbed")
	}
}

func TestNormalizePropertyRowStochastic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(1+rng.Intn(10), 1+rng.Intn(10))
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		m.NormalizeRows()
		for _, s := range m.RowSums() {
			if s != 0 && math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLog1pScaled(t *testing.T) {
	m := FromRows([][]float64{{0, 1}, {2, 0.5}})
	m.Log1pScaled(3)
	want := FromRows([][]float64{
		{0, math.Log(4)},
		{math.Log(7), math.Log(2.5)},
	})
	if !m.Equal(want, 1e-12) {
		t.Fatalf("Log1pScaled = %v, want %v", m.Data, want.Data)
	}
}

func TestScaleAddSub(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	n := FromRows([][]float64{{1, 1}, {1, 1}})
	m.Scale(2)
	m.AddScaled(3, n)
	want := FromRows([][]float64{{5, 7}, {9, 11}})
	if !m.Equal(want, 0) {
		t.Fatalf("got %v want %v", m.Data, want.Data)
	}
	m.Sub(n)
	want = FromRows([][]float64{{4, 6}, {8, 10}})
	if !m.Equal(want, 0) {
		t.Fatalf("after Sub got %v want %v", m.Data, want.Data)
	}
}

func TestColOps(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	col := m.Col(1, nil)
	if col[0] != 2 || col[1] != 5 {
		t.Fatalf("Col = %v", col)
	}
	m.SetCol(0, []float64{9, 10})
	if m.At(0, 0) != 9 || m.At(1, 0) != 10 {
		t.Fatal("SetCol failed")
	}
	sl := m.ColSlice(1, 3)
	if sl.Rows != 2 || sl.Cols != 2 || sl.At(1, 1) != 6 {
		t.Fatalf("ColSlice wrong: %+v", sl)
	}
	dst := New(2, 3)
	dst.SetColSlice(1, sl)
	if dst.At(0, 1) != 2 || dst.At(1, 2) != 6 {
		t.Fatal("SetColSlice failed")
	}
}

func TestStackRows(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	s := StackRows(a, b)
	want := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !s.Equal(want, 0) {
		t.Fatalf("StackRows = %v", s.Data)
	}
}

func TestDotNormAxpy(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-14 {
		t.Fatal("Norm2 wrong")
	}
	AxpyVec(2, a, b)
	if b[0] != 6 || b[2] != 12 {
		t.Fatalf("AxpyVec = %v", b)
	}
}

// TestDotUnrolledTails exercises every remainder length of the 4-way
// unrolled kernel against the plain one-accumulator sum. Exact integer
// values keep the comparison independent of accumulation order.
func TestDotUnrolledTails(t *testing.T) {
	for n := 0; n <= 13; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		var want float64
		for i := range a {
			a[i] = float64(i + 1)
			b[i] = float64(2*i - 3)
			want += a[i] * b[i]
		}
		if got := Dot(a, b); got != want {
			t.Fatalf("Dot len %d = %v, want %v", n, got, want)
		}
	}
}

func TestSplitRanges(t *testing.T) {
	cases := []struct {
		n, nb  int
		chunks int
	}{
		{10, 3, 3}, {10, 1, 1}, {3, 10, 3}, {0, 4, 0}, {7, 7, 7},
	}
	for _, c := range cases {
		rs := SplitRanges(c.n, c.nb)
		if len(rs) != c.chunks {
			t.Fatalf("SplitRanges(%d,%d) = %d chunks, want %d", c.n, c.nb, len(rs), c.chunks)
		}
		covered := 0
		prev := 0
		for _, r := range rs {
			if r[0] != prev {
				t.Fatalf("SplitRanges(%d,%d) gap at %v", c.n, c.nb, r)
			}
			covered += r[1] - r[0]
			prev = r[1]
		}
		if covered != c.n {
			t.Fatalf("SplitRanges(%d,%d) covers %d", c.n, c.nb, covered)
		}
	}
}

func TestParallelRangesCoversAll(t *testing.T) {
	n := 1003
	seen := make([]int32, n)
	ParallelRanges(n, 7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, 4}})
	if math.Abs(m.FrobeniusNorm()-5) > 1e-14 {
		t.Fatalf("FrobeniusNorm = %v", m.FrobeniusNorm())
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}
