// Package sparse implements compressed sparse row (CSR) matrices and the
// parallel sparse-dense multiplication kernels at the heart of PANE's
// APMI/PAPMI phase. The Go ecosystem has no production sparse linear
// algebra in the standard library, so these kernels are hand-rolled.
//
// A CSR matrix stores, for each row, a contiguous run of (column, value)
// pairs. The two products PANE needs are
//
//	P · X   (random-walk push along out-edges)
//	Pᵀ · X  (pull along in-edges)
//
// Both are provided; Pᵀ·X is computed from a CSR of the transpose built
// once up front, so that both directions stream memory with unit stride.
package sparse

import (
	"fmt"
	"sort"

	"pane/internal/mat"
)

// CSR is an immutable sparse matrix in compressed sparse row format,
// stored as row pages of mat.PageRows rows: row i's entries are a
// contiguous run of (column, value) pairs, sorted by column, inside page
// i/PageRows. A freshly built CSR is one allocation per array that every
// page aliases (Flat returns it as is, and whole-matrix kernels stream it
// with unit stride); MergeEntries copies the page slice and rebuilds only
// the pages its entries fall in, sharing every other page with the
// matrix it came from.
type CSR struct {
	R, C  int
	nnz   int
	pages []*page

	// The contiguous arrays the pages alias; nil once a merge has
	// replaced a page.
	rowPtr []int
	cols   []int32
	vals   []float64
}

// page holds up to PageRows consecutive rows: local row r is
// cols[ptr[r]:ptr[r+1]] and the matching vals. The offsets are absolute
// into the shared arrays of a freshly built CSR and start at 0 in a page
// rebuilt by a merge.
type page struct {
	ptr  []int
	cols []int32
	vals []float64
}

func (pg *page) nnz() int { return pg.ptr[len(pg.ptr)-1] - pg.ptr[0] }

// fromArrays pages a CSR over its contiguous arrays without copying.
func fromArrays(r, c int, rowPtr []int, cols []int32, vals []float64) *CSR {
	m := &CSR{R: r, C: c, nnz: len(cols), rowPtr: rowPtr, cols: cols, vals: vals}
	ps := make([]page, (r+mat.PageRows-1)/mat.PageRows)
	m.pages = make([]*page, len(ps))
	for k := range ps {
		lo, hi := k*mat.PageRows, min((k+1)*mat.PageRows, r)
		ps[k] = page{ptr: rowPtr[lo : hi+1], cols: cols, vals: vals}
		m.pages[k] = &ps[k]
	}
	return m
}

// FromArrays builds a CSR over the given contiguous arrays (row i is
// cols[rowPtr[i]:rowPtr[i+1]], sorted by column) without copying them;
// the caller must not write them afterwards. It is how a deserialized
// matrix enters the package, so the arrays are checked, not trusted.
func FromArrays(r, c int, rowPtr []int, cols []int32, vals []float64) (*CSR, error) {
	if r < 0 || c < 0 || len(rowPtr) != r+1 || rowPtr[0] != 0 || rowPtr[r] != len(cols) || len(vals) != len(cols) {
		return nil, fmt.Errorf("sparse: %dx%d CSR with %d row pointers, %d columns, %d values: lengths or end offsets disagree",
			r, c, len(rowPtr), len(cols), len(vals))
	}
	for i := 0; i < r; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("sparse: row pointers decrease at row %d", i)
		}
	}
	for i, col := range cols {
		if col < 0 || int(col) >= c {
			return nil, fmt.Errorf("sparse: column %d out of range at entry %d", col, i)
		}
	}
	return fromArrays(r, c, rowPtr, cols, vals), nil
}

// Flat returns the matrix as contiguous CSR arrays, shared and read-only:
// free for a freshly built matrix, an O(nnz) assembly after a merge.
func (m *CSR) Flat() (rowPtr []int, cols []int32, vals []float64) {
	if m.rowPtr != nil {
		return m.rowPtr, m.cols, m.vals
	}
	rowPtr = make([]int, m.R+1)
	cols = make([]int32, 0, m.nnz)
	vals = make([]float64, 0, m.nnz)
	for i := 0; i < m.R; i++ {
		cs, vs := m.Row(i)
		cols = append(cols, cs...)
		vals = append(vals, vs...)
		rowPtr[i+1] = len(cols)
	}
	return rowPtr, cols, vals
}

// SamePage reports whether page k of m and o is the same memory — what a
// merge that put no entry in the page guarantees.
func (m *CSR) SamePage(o *CSR, k int) bool { return m.pages[k] == o.pages[k] }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return m.nnz }

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int {
	cols, _ := m.Row(i)
	return len(cols)
}

// Row returns the column indices and values of row i as shared slices.
func (m *CSR) Row(i int) ([]int32, []float64) {
	pg, r := m.pages[i/mat.PageRows], i%mat.PageRows
	lo, hi := pg.ptr[r], pg.ptr[r+1]
	return pg.cols[lo:hi], pg.vals[lo:hi]
}

// RowSum returns the sum of row i's stored values, left to right.
func (m *CSR) RowSum(i int) float64 {
	_, vals := m.Row(i)
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// At returns the value at (i, j), zero when the entry is not stored.
// It binary-searches row i, so it costs O(log nnz(row)); use Row for scans.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return vals[k]
	}
	return 0
}

// Entry is one (row, col, value) triple used when building a CSR.
type Entry struct {
	Row, Col int
	Val      float64
}

// NewCSR builds an r x c CSR from entries. Duplicate (row, col) pairs are
// summed. Entries with out-of-range coordinates cause a panic; zero-valued
// entries are kept (callers that want them dropped should filter first) so
// that explicitly stored structural zeros survive round trips.
func NewCSR(r, c int, entries []Entry) *CSR {
	counts := make([]int, r+1)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= r || e.Col < 0 || e.Col >= c {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d", e.Row, e.Col, r, c))
		}
		counts[e.Row+1]++
	}
	for i := 0; i < r; i++ {
		counts[i+1] += counts[i]
	}
	rowPtr := counts
	cols := make([]int32, len(entries))
	vals := make([]float64, len(entries))
	next := make([]int, r)
	for i := range next {
		next[i] = rowPtr[i]
	}
	for _, e := range entries {
		p := next[e.Row]
		cols[p] = int32(e.Col)
		vals[p] = e.Val
		next[e.Row]++
	}
	rowPtr, cols, vals = sortRowsAndMergeDuplicates(r, rowPtr, cols, vals)
	return fromArrays(r, c, rowPtr, cols, vals)
}

// sortRowsAndMergeDuplicates sorts each row by column and sums duplicates,
// compacting the storage in place.
func sortRowsAndMergeDuplicates(r int, rowPtr []int, cols []int32, vals []float64) ([]int, []int32, []float64) {
	outPtr := make([]int, r+1)
	w := 0
	for i := 0; i < r; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		sort.Sort(rowSorter{cols: cols[lo:hi], vals: vals[lo:hi]})
		outPtr[i] = w
		for k := lo; k < hi; {
			col := cols[k]
			sum := vals[k]
			k++
			for k < hi && cols[k] == col {
				sum += vals[k]
				k++
			}
			cols[w] = col
			vals[w] = sum
			w++
		}
	}
	outPtr[r] = w
	return outPtr, cols[:w], vals[:w]
}

type rowSorter struct {
	cols []int32
	vals []float64
}

func (s rowSorter) Len() int           { return len(s.cols) }
func (s rowSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s rowSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// T returns the transpose as a new CSR, using a counting pass so the
// result's rows come out already column-sorted.
func (m *CSR) T() *CSR {
	counts := make([]int, m.C+1)
	for i := 0; i < m.R; i++ {
		cs, _ := m.Row(i)
		for _, c := range cs {
			counts[c+1]++
		}
	}
	for i := 0; i < m.C; i++ {
		counts[i+1] += counts[i]
	}
	rowPtr := make([]int, m.C+1)
	copy(rowPtr, counts)
	cols := make([]int32, m.nnz)
	vals := make([]float64, m.nnz)
	for i := 0; i < m.R; i++ {
		cs, vs := m.Row(i)
		for k, c := range cs {
			p := counts[c]
			cols[p] = int32(i)
			vals[p] = vs[k]
			counts[c]++
		}
	}
	return fromArrays(m.C, m.R, rowPtr, cols, vals)
}

// ToDense materializes m as a dense matrix. Intended for tests and small
// examples only.
func (m *CSR) ToDense() *mat.Dense {
	out := mat.New(m.R, m.C)
	for i := 0; i < m.R; i++ {
		cols, vals := m.Row(i)
		row := out.Row(i)
		for k, c := range cols {
			row[c] += vals[k]
		}
	}
	return out
}

// ScaleRows returns m with row i multiplied by s[i], as a freshly built
// matrix. Used to turn an adjacency matrix into the random-walk matrix
// P = D⁻¹A.
func (m *CSR) ScaleRows(s []float64) *CSR {
	if len(s) != m.R {
		panic("sparse: ScaleRows length mismatch")
	}
	rowPtr, cols, vals := m.Flat()
	scaled := make([]float64, len(vals))
	for i := 0; i < m.R; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			scaled[k] = vals[k] * s[i]
		}
	}
	return fromArrays(m.R, m.C, rowPtr, cols, scaled)
}

// ColSums returns the per-column sum of stored values.
func (m *CSR) ColSums() []float64 {
	sums := make([]float64, m.C)
	for i := 0; i < m.R; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			sums[c] += vals[k]
		}
	}
	return sums
}
