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

// plain returns the view of m that reads its stored values unscaled.
func plain(m *CSR) Scaled {
	ones := make([]float64, m.C)
	for j := range ones {
		ones[j] = 1
	}
	return m.ColScaled(ones)
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
	got := plain(m).MulDense(x)
	want := mat.Mul(m.ToDense(), x)
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Fatal("sparse MulDense differs from dense multiply")
	}
}

func TestParMulDenseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomCSR(rng, 41, 31, 0.15)
	x := randomDense(rng, 31, 5)
	want := plain(m).MulDense(x)
	for _, nb := range []int{1, 2, 3, 8, 64} {
		got := plain(m).ParMulDense(x, nb)
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

// colInv returns the column factors of m's column-normalized view, summed
// along the rows of its transpose (each column in row order).
func colInv(m *CSR) []float64 {
	mt := m.T()
	inv := make([]float64, m.C)
	for j := range inv {
		inv[j] = InvSum(mt.RowSum(j))
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
// dst = b·y + Σ (a·m[i,c])·x[c] on the materialized views bit for bit, at
// the first level (x is the seed) and at a later one, for any worker
// count, with m any of the views: of a valued matrix, and the two views of
// a pattern P and Pᵀ are.
func TestAxpyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, d = 17, 6
	m := randomAttrs(rng, n, n)
	pat, err := NewCSR(n, n, ones(m)).Pattern()
	if err != nil {
		t.Fatal(err)
	}
	r := randomAttrs(rng, n, d)
	later := mat.New(n, d)
	for i := range later.Data {
		later.Data[i] = rng.Float64()
	}
	a, b := 0.85, 0.15
	for mi, mv := range []Scaled{m.RowNormalized(), m.ColScaled(colInv(m)), pat.RowNormalized(), pat.T().ColNormalizedBy(pat)} {
		dm := mv.ToDense()
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
					for c, mic := range dm.Row(i) {
						if mic == 0 {
							continue
						}
						v := a * mic
						for p := range row {
							row[p] += v * dx.At(c, p)
						}
					}
				}
				for _, nb := range []int{1, 3} {
					dst := mat.New(n, d)
					mv.AxpyInto(dst, a, x, b, y, nb)
					if !slices.Equal(dst.Data, want.Data) {
						t.Fatalf("view %d, nb=%d, x nil=%v: AxpyInto differs from the dense step", mi, nb, x == nil)
					}
				}
			}
		}
	}
}

// ones returns m's entries with every value set to 1.
func ones(m *CSR) []Entry {
	var out []Entry
	for i := 0; i < m.R; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			out = append(out, Entry{i, int(c), 1})
		}
	}
	return out
}

// TestPattern: a pattern reads 1 at every stored entry through every
// accessor, keeps its columns through a transpose and a merge — an entry
// it holds or one repeated within the merge is stored once — and a
// matrix storing any other value is refused.
func TestPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomAttrs(rng, 37, 29)
	p, err := NewCSR(m.R, m.C, ones(m)).Pattern()
	if err != nil {
		t.Fatal(err)
	}
	if _, vals := p.Row(0); vals != nil {
		t.Fatal("a pattern's row carries values")
	}
	for k, pg := range p.pages {
		if pg.vals != nil {
			t.Fatalf("a pattern's page %d carries values", k)
		}
	}
	want := NewCSR(m.R, m.C, ones(m)).ToDense()
	if !slices.Equal(p.ToDense().Data, want.Data) || !slices.Equal(p.T().ToDense().Data, want.T().Data) {
		t.Fatal("pattern or its transpose reads other than its entries at 1")
	}
	for i := 0; i < m.R; i++ {
		cols, _ := p.Row(i)
		if p.RowSum(i) != float64(len(cols)) {
			t.Fatalf("row %d: RowSum %v of %d entries", i, p.RowSum(i), len(cols))
		}
		for _, c := range cols {
			if p.At(i, int(c)) != 1 {
				t.Fatalf("At(%d,%d) = %v", i, c, p.At(i, int(c)))
			}
		}
	}
	add := []Entry{{0, 1, 7}, {0, 1, 7}, {5, 3, 7}, {36, 28, 7}}
	cols, _ := p.Row(5)
	add = append(add, Entry{5, int(cols[0]), 7}) // held
	merged := p.MergeEntries(add, nil)
	rebuilt, err := NewCSR(m.R, m.C, ones(merged)).Pattern()
	if err != nil {
		t.Fatal(err)
	}
	if merged.NNZ() != rebuilt.NNZ() || !slices.Equal(merged.ToDense().Data, rebuilt.ToDense().Data) {
		t.Fatal("merged pattern differs from a rebuild")
	}
	for _, e := range add {
		if merged.At(e.Row, e.Col) != 1 {
			t.Fatalf("merged pattern reads %v at (%d,%d)", merged.At(e.Row, e.Col), e.Row, e.Col)
		}
	}
	if _, err := NewCSR(2, 2, []Entry{{0, 1, 1}, {1, 0, 0.5}}).Pattern(); err == nil {
		t.Fatal("a matrix storing 0.5 became a pattern")
	}
}

// TestFromArraysRejectsUnsortedRows: a row whose columns descend or repeat
// is refused, since At's binary search and MergeEntries' sorted merge
// would read it wrongly; an ascending one is accepted.
func TestFromArraysRejectsUnsortedRows(t *testing.T) {
	rowPtr := []uint64{0, 2, 3}
	vals := []float64{1, 1, 1}
	if _, err := FromArrays(2, 4, rowPtr, sliceReader([]int32{1, 3, 0}), sliceReader(vals)); err != nil {
		t.Fatalf("ascending rows refused: %v", err)
	}
	for _, cols := range [][]int32{{3, 1, 0}, {2, 2, 0}} {
		if _, err := FromArrays(2, 4, rowPtr, sliceReader(cols), sliceReader(vals)); err == nil {
			t.Fatalf("row columns %v accepted", cols[:2])
		}
	}
}

// sliceReader reads s front to back, n values a call, as FromArrays reads
// a page's columns or values.
func sliceReader[T any](s []T) func(n int) ([]T, error) {
	return func(n int) ([]T, error) {
		pg := s[:n:n]
		s = s[n:]
		return pg, nil
	}
}

func TestScaleRowsAndSums(t *testing.T) {
	m := NewCSR(2, 3, []Entry{{0, 0, 2}, {0, 2, 4}, {1, 1, 3}})
	if m.RowSum(0) != 6 || m.RowSum(1) != 3 {
		t.Fatalf("RowSum = %v, %v", m.RowSum(0), m.RowSum(1))
	}
	s := m.RowNormalized().ToDense()
	if s.At(0, 2) != 4*(1.0/6) || s.At(1, 1) != 1 {
		t.Fatal("RowNormalized wrong")
	}
	if m.At(0, 2) != 4 || m.At(1, 1) != 3 {
		t.Fatal("RowNormalized wrote through to its receiver")
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
		got := plain(m.T()).MulDense(x)
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
		for i := range sums {
			sums[i] = m.RowSum(i)
		}
		ones := mat.New(n, 1)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		out := m.RowNormalized().MulDense(ones)
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
