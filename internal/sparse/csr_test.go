package sparse

import (
	"math"
	"math/rand"
	"slices"
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

// randomAttrs builds a non-negative r x c CSR with some empty rows and
// columns, the shape of an attribute matrix.
func randomAttrs(rng *rand.Rand, r, c int) *CSR {
	var entries []Entry
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if i%5 != 4 && j%4 != 3 && rng.Float64() < 0.3 {
				entries = append(entries, Entry{i, j, 0.2 + rng.Float64()})
			}
		}
	}
	return NewCSR(r, c, entries)
}

// colInv returns the column factors of m's column-normalized view.
func colInv(m *CSR) []float64 {
	inv := m.ColSums()
	for j, s := range inv {
		inv[j] = InvSum(s)
	}
	return inv
}

// TestScaledMatchesDenseNormalize: both views read bit for bit as the dense
// matrix normalized in place, empty rows and columns included.
func TestScaledMatchesDenseNormalize(t *testing.T) {
	m := randomAttrs(rand.New(rand.NewSource(12)), 23, 9)
	rows := m.ToDense()
	rows.NormalizeRows()
	cols := m.ToDense()
	cols.NormalizeColumns()
	if !slices.Equal(m.RowNormalized().ToDense().Data, rows.Data) {
		t.Fatal("row-normalized view differs from NormalizeRows")
	}
	if !slices.Equal(m.ColScaled(colInv(m)).ToDense().Data, cols.Data) {
		t.Fatal("column-scaled view differs from NormalizeColumns")
	}
}

// TestAxpyInto: the view kernel equals the dense recurrence step
// dst = b·y + Σ (a·m[i,c])·x[c] on the materialized seed bit for bit, at
// the first level (x is the seed) and at a later one, for any worker count.
func TestAxpyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, d = 17, 6
	m := randomAttrs(rng, n, n)
	r := randomAttrs(rng, n, d)
	later := mat.New(n, d)
	for i := range later.Data {
		later.Data[i] = rng.Float64()
	}
	a, b := 0.85, 0.15
	for _, y := range []Scaled{r.RowNormalized(), r.ColScaled(colInv(r))} {
		seed := y.ToDense()
		for _, x := range []*mat.Dense{nil, later} {
			dx := x
			if x == nil {
				dx = seed
			}
			want := mat.New(n, d)
			for i := 0; i < n; i++ {
				row := want.Row(i)
				for p := range row {
					row[p] = b * seed.At(i, p)
				}
				cols, vals := m.Row(i)
				for k, c := range cols {
					v := a * vals[k]
					for p := range row {
						row[p] += v * dx.At(int(c), p)
					}
				}
			}
			for _, nb := range []int{1, 3} {
				dst := mat.New(n, d)
				m.AxpyInto(dst, a, x, b, y, nb)
				if !slices.Equal(dst.Data, want.Data) {
					t.Fatalf("nb=%d, x nil=%v: AxpyInto differs from the dense step", nb, x == nil)
				}
			}
		}
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
