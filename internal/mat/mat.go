// Package mat provides dense row-major float64 matrices and the parallel
// kernels PANE needs: blocked matrix multiplication, transposition,
// row/column normalization, and elementwise transforms.
//
// The package is deliberately small and allocation-conscious: the hot
// paths of PANE (APMI iterations, CCD residual maintenance, randomized
// SVD) all reduce to the operations defined here and in package sparse.
// Everything is stdlib-only.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major matrix of float64 values. The zero value is an
// empty 0x0 matrix. Data is stored in a single backing slice of length
// Rows*Cols; row i occupies Data[i*Cols : (i+1)*Cols].
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r x c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the
// values. It panics when the rows are ragged.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged row %d: len %d, want %d", i, len(row), c))
		}
		copy(m.Row(i), row)
	}
	return m
}

// Row returns the i-th row as a mutable slice view into the backing data.
func (m *Dense) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m with the contents of src. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	out := New(m.Cols, m.Rows)
	// Block the transpose for cache friendliness on large matrices.
	const bs = 64
	for ib := 0; ib < m.Rows; ib += bs {
		iMax := min(ib+bs, m.Rows)
		for jb := 0; jb < m.Cols; jb += bs {
			jMax := min(jb+bs, m.Cols)
			for i := ib; i < iMax; i++ {
				ri := m.Data[i*m.Cols:]
				for j := jb; j < jMax; j++ {
					out.Data[j*out.Cols+i] = ri[j]
				}
			}
		}
	}
	return out
}

// Col copies column j of m into dst (which must have length m.Rows) and
// returns dst. A nil dst allocates a fresh slice.
func (m *Dense) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	if len(dst) != m.Rows {
		panic("mat: Col dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// SetCol overwrites column j of m from src, which must have length m.Rows.
func (m *Dense) SetCol(j int, src []float64) {
	if len(src) != m.Rows {
		panic("mat: SetCol src length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = src[i]
	}
}

// Equal reports whether m and other have identical shape and all elements
// within tol of each other.
func (m *Dense) Equal(other *Dense, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between m
// and other. It panics on shape mismatch.
func (m *Dense) MaxAbsDiff(other *Dense) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("mat: MaxAbsDiff shape mismatch")
	}
	var worst float64
	for i, v := range m.Data {
		if d := math.Abs(v - other.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Scale multiplies every element of m by a, in place.
func (m *Dense) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// AddScaled performs m += a*other elementwise, in place.
func (m *Dense) AddScaled(a float64, other *Dense) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("mat: AddScaled shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += a * other.Data[i]
	}
}

// Sub performs m -= other elementwise, in place.
func (m *Dense) Sub(other *Dense) { m.AddScaled(-1, other) }

// Apply replaces every element x of m with f(x), in place.
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// Log1pScaled replaces every element x with log(c*x + 1) in place. This is
// the SPMI transform of Equation (7) of the paper: F' = log(n*P̂f + 1).
// Natural log is used throughout, consistently for targets and models.
func (m *Dense) Log1pScaled(c float64) {
	for i, v := range m.Data {
		m.Data[i] = math.Log1p(c * v)
	}
}

// ColSums returns a length-Cols vector of column sums.
func (m *Dense) ColSums() []float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// RowSums returns a length-Rows vector of row sums.
func (m *Dense) RowSums() []float64 {
	sums := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		sums[i] = s
	}
	return sums
}

// NormalizeColumns divides each column by its sum, in place. Columns whose
// sum is zero are left untouched (there is no probability mass to
// distribute), mirroring Line 6 of Algorithm 2.
func (m *Dense) NormalizeColumns() {
	sums := m.ColSums()
	inv := make([]float64, m.Cols)
	for j, s := range sums {
		if s != 0 {
			inv[j] = 1 / s
		} else {
			inv[j] = 1 // leave zero columns as zeros
		}
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= inv[j]
		}
	}
}

// NormalizeRows divides each row by its sum, in place. Zero rows are left
// untouched, mirroring Line 7 of Algorithm 2.
func (m *Dense) NormalizeRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v
		}
		if s == 0 {
			continue
		}
		inv := 1 / s
		for j := range row {
			row[j] *= inv
		}
	}
}

// RowView returns a Dense sharing storage with rows [lo, hi) of m. Mutating
// the view mutates m. This is how the parallel algorithms hand row blocks
// to worker goroutines, and the sharded serving path addresses one shard
// of a candidate matrix, without copying.
func (m *Dense) RowView(lo, hi int) *Dense {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("mat: RowView [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	return &Dense{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// ColSlice returns a newly allocated matrix with columns [lo, hi) of m.
func (m *Dense) ColSlice(lo, hi int) *Dense {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("mat: ColSlice [%d,%d) out of range for %d cols", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// SetColSlice copies src into columns [lo, lo+src.Cols) of m.
func (m *Dense) SetColSlice(lo int, src *Dense) {
	if src.Rows != m.Rows || lo+src.Cols > m.Cols {
		panic("mat: SetColSlice shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i)[lo:lo+src.Cols], src.Row(i))
	}
}

// StackRows vertically concatenates the given matrices (which must share a
// column count) into a new matrix.
func StackRows(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return New(0, 0)
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic("mat: StackRows column mismatch")
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	at := 0
	for _, m := range ms {
		copy(out.Data[at*cols:], m.Data)
		at += m.Rows
	}
	return out
}

// Dot returns the inner product of two equal-length vectors. On amd64
// with AVX2 the 4-aligned prefix runs in assembly (see kernels_amd64.s);
// everywhere else — and under the noasm build tag — DotGeneric runs. Both
// kernels follow the one canonical summation order documented on
// DotGeneric, so the result is bit-identical across instruction sets and
// build tags: the candidate scans in internal/index spend most of their
// cycles here, and the exact backend's bit-determinism guarantee rides on
// every host summing in the same order.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if useAVX2 && n >= 8 {
		p := n &^ 3
		s := dotAVX2(&a[0], &b[0], p)
		for i := p; i < n; i++ {
			s += float64(a[i] * b[i])
		}
		return s
	}
	return DotGeneric(a, b)
}

// DotGeneric is the portable dot kernel and the reference the SIMD path
// is tested against. It fixes the canonical summation order shared by
// every Dot implementation in the repository: sixteen independent
// accumulators over 16-element blocks (matching four 4-lane AVX2
// registers), folded pairwise exactly as the vector kernel folds its
// registers, an optional 8- and 4-element block accumulated into the
// folded lanes, a (l0+l1)+(l2+l3) horizontal reduction, and a sequential
// scalar tail. The explicit float64 conversions pin each product to one
// rounding step, forbidding the fused-multiply-add contraction Go
// otherwise permits (and performs on arm64) — without them the "same
// order" contract would not survive a cross-compile.
func DotGeneric(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	var s8, s9, s10, s11, s12, s13, s14, s15 float64
	i := 0
	for ; i+16 <= n; i += 16 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
		s4 += float64(a[i+4] * b[i+4])
		s5 += float64(a[i+5] * b[i+5])
		s6 += float64(a[i+6] * b[i+6])
		s7 += float64(a[i+7] * b[i+7])
		s8 += float64(a[i+8] * b[i+8])
		s9 += float64(a[i+9] * b[i+9])
		s10 += float64(a[i+10] * b[i+10])
		s11 += float64(a[i+11] * b[i+11])
		s12 += float64(a[i+12] * b[i+12])
		s13 += float64(a[i+13] * b[i+13])
		s14 += float64(a[i+14] * b[i+14])
		s15 += float64(a[i+15] * b[i+15])
	}
	u0, u1, u2, u3 := s0+s4, s1+s5, s2+s6, s3+s7
	v0, v1, v2, v3 := s8+s12, s9+s13, s10+s14, s11+s15
	if i+8 <= n {
		u0 += float64(a[i] * b[i])
		u1 += float64(a[i+1] * b[i+1])
		u2 += float64(a[i+2] * b[i+2])
		u3 += float64(a[i+3] * b[i+3])
		v0 += float64(a[i+4] * b[i+4])
		v1 += float64(a[i+5] * b[i+5])
		v2 += float64(a[i+6] * b[i+6])
		v3 += float64(a[i+7] * b[i+7])
		i += 8
	}
	l0, l1, l2, l3 := u0+v0, u1+v1, u2+v2, u3+v3
	if i+4 <= n {
		l0 += float64(a[i] * b[i])
		l1 += float64(a[i+1] * b[i+1])
		l2 += float64(a[i+2] * b[i+2])
		l3 += float64(a[i+3] * b[i+3])
		i += 4
	}
	s := (l0 + l1) + (l2 + l3)
	for ; i < n; i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// AxpyVec performs y += a*x for equal-length vectors. Each element is an
// independent multiply-add, so the SIMD and generic paths are trivially
// bit-identical (no accumulation order to preserve — only the per-element
// rounding the explicit conversions pin down).
func AxpyVec(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: AxpyVec length mismatch %d vs %d", len(x), len(y)))
	}
	axpyTo(y, a, x)
}

// axpyTo performs y[i] += a*x[i] over len(y) elements; x must be at least
// as long as y. It is the shared element-wise kernel behind AxpyVec and
// the GEMM remainder columns.
func axpyTo(y []float64, a float64, x []float64) {
	n := len(y)
	if useAVX2 && n >= 4 {
		p := n &^ 3
		axpyAVX2(a, &x[0], &y[0], p)
		for i := p; i < n; i++ {
			y[i] += float64(a * x[i])
		}
		return
	}
	AxpyGeneric(y, a, x)
}

// AxpyGeneric is the portable element-wise multiply-add kernel, and the
// reference the SIMD path is tested against.
func AxpyGeneric(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for i, v := range x {
		y[i] += float64(a * v)
	}
}
