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
// Both run on Scaled views of a pattern — a CSR whose stored values are
// all 1, kept as row pointers and columns only: P is the adjacency read
// with each row scaled by 1/(its length), Pᵀ the adjacency's transpose
// read with column u scaled by the same factor of row u, so both
// directions stream memory with unit stride and neither stores a value.
package sparse

import (
	"fmt"
	"math/bits"
	"sort"

	"pane/internal/mat"
)

// CSR is an immutable sparse matrix in compressed sparse row format,
// stored as row pages of mat.PageRows rows (of one row for a transpose
// built by TByRow): row i's entries are a contiguous run of (column,
// value) pairs, sorted by column, inside page i/PageRows; a pattern (see
// Pattern) stores the columns alone, every stored value reading 1. A
// freshly built CSR is one allocation per array that every page aliases
// (Flat returns it as is, and whole-matrix kernels stream it with unit
// stride); MergeEntries copies the page slice and rebuilds only the pages
// its entries fall in, sharing every other page with the matrix it came
// from.
type CSR struct {
	R, C  int
	nnz   int
	shift uint // a page holds 1<<shift rows
	pages []*page

	pattern bool // no values are stored: every stored value is 1

	// The contiguous arrays the pages alias; nil once a merge has
	// replaced a page.
	rowPtr []int
	cols   []int32
	vals   []float64
}

// page holds up to 1<<shift consecutive rows: local row r is
// cols[ptr[r]:ptr[r+1]] and the matching vals. The offsets are absolute
// into the shared arrays of a freshly built CSR and start at 0 in a page
// rebuilt by a merge. vals is nil in a pattern's pages.
type page struct {
	ptr  []int
	cols []int32
	vals []float64
}

func (pg *page) nnz() int { return pg.ptr[len(pg.ptr)-1] - pg.ptr[0] }

// pageShift is log2 of mat.PageRows, the rows of a default page.
var pageShift = uint(bits.TrailingZeros(mat.PageRows))

// fromArrays pages a CSR over its contiguous arrays without copying, 1<<shift
// rows a page; vals == nil builds a pattern.
func fromArrays(r, c int, shift uint, rowPtr []int, cols []int32, vals []float64) *CSR {
	m := &CSR{R: r, C: c, nnz: len(cols), shift: shift, rowPtr: rowPtr, cols: cols, vals: vals, pattern: vals == nil}
	rows := 1 << shift
	ps := make([]page, (r+rows-1)/rows)
	m.pages = make([]*page, len(ps))
	for k := range ps {
		lo, hi := k*rows, min((k+1)*rows, r)
		ps[k] = page{ptr: rowPtr[lo : hi+1], cols: cols, vals: vals}
		m.pages[k] = &ps[k]
	}
	return m
}

// FromArrays builds a CSR over the given contiguous arrays (row i is
// cols[rowPtr[i]:rowPtr[i+1]], strictly ascending) without copying them;
// the caller must not write them afterwards. It is how a deserialized
// matrix enters the package, so the arrays are checked, not trusted: a row
// out of order or with a repeated column would make At's binary search
// and MergeEntries' sorted merge give wrong answers.
func FromArrays(r, c int, rowPtr []int, cols []int32, vals []float64) (*CSR, error) {
	if r < 0 || c < 0 || len(rowPtr) != r+1 || rowPtr[0] != 0 || rowPtr[r] != len(cols) || len(vals) != len(cols) {
		return nil, fmt.Errorf("sparse: %dx%d CSR with %d row pointers, %d columns, %d values: lengths or end offsets disagree",
			r, c, len(rowPtr), len(cols), len(vals))
	}
	for i := 0; i < r; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("sparse: row pointers decrease at row %d", i)
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if col := cols[k]; col < 0 || int(col) >= c {
				return nil, fmt.Errorf("sparse: column %d out of range at entry %d", col, k)
			} else if k > rowPtr[i] && col <= cols[k-1] {
				return nil, fmt.Errorf("sparse: row %d is not strictly ascending at entry %d (column %d after %d)", i, k, col, cols[k-1])
			}
		}
	}
	return fromArrays(r, c, pageShift, rowPtr, cols, vals), nil
}

// Pattern returns m as a pattern: the same rows and columns with no values
// stored, every stored value reading 1. It refuses a matrix storing any
// other value; a pattern is returned as it is.
func (m *CSR) Pattern() (*CSR, error) {
	if m.pattern {
		return m, nil
	}
	rowPtr, cols, vals := m.Flat()
	for k, v := range vals {
		if v != 1 {
			return nil, fmt.Errorf("sparse: value %v at entry %d of a pattern, want 1", v, k)
		}
	}
	return fromArrays(m.R, m.C, m.shift, rowPtr, cols, nil), nil
}

// Flat returns the matrix as contiguous CSR arrays, shared and read-only:
// free for a freshly built matrix, an O(nnz) assembly after a merge. vals
// is nil for a pattern.
func (m *CSR) Flat() (rowPtr []int, cols []int32, vals []float64) {
	if m.rowPtr != nil {
		return m.rowPtr, m.cols, m.vals
	}
	rowPtr = make([]int, m.R+1)
	cols = make([]int32, 0, m.nnz)
	if !m.pattern {
		vals = make([]float64, 0, m.nnz)
	}
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

// Row returns the column indices and values of row i as shared slices;
// the values are nil for a pattern.
func (m *CSR) Row(i int) ([]int32, []float64) {
	pg, r := m.pages[i>>m.shift], i&(1<<m.shift-1)
	lo, hi := pg.ptr[r], pg.ptr[r+1]
	if m.pattern {
		return pg.cols[lo:hi], nil
	}
	return pg.cols[lo:hi], pg.vals[lo:hi]
}

// rowLen returns the number of entries stored in row i.
func (m *CSR) rowLen(i int) int {
	pg, r := m.pages[i>>m.shift], i&(1<<m.shift-1)
	return pg.ptr[r+1] - pg.ptr[r]
}

// value returns the k-th of a row's values as Row returned them: 1 when
// they are nil, a pattern's.
func value(vals []float64, k int) float64 {
	if vals == nil {
		return 1
	}
	return vals[k]
}

// RowSum returns the sum of row i's stored values, left to right: the row's
// length for a pattern, in O(1).
func (m *CSR) RowSum(i int) float64 {
	if m.pattern {
		return float64(m.rowLen(i))
	}
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
		return value(vals, k)
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
	return fromArrays(r, c, pageShift, rowPtr, cols, vals)
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
func (m *CSR) T() *CSR { return m.transpose(pageShift) }

// TByRow returns the transpose paged one row per page, for a matrix whose
// transpose has few, long rows — an attribute matrix's supporter lists —
// so that a merge into it copies only the rows it touches.
func (m *CSR) TByRow() *CSR { return m.transpose(0) }

func (m *CSR) transpose(shift uint) *CSR {
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
	var vals []float64
	if !m.pattern {
		vals = make([]float64, m.nnz)
	}
	for i := 0; i < m.R; i++ {
		cs, vs := m.Row(i)
		for k, c := range cs {
			p := counts[c]
			cols[p] = int32(i)
			if vals != nil {
				vals[p] = vs[k]
			}
			counts[c]++
		}
	}
	return fromArrays(m.C, m.R, shift, rowPtr, cols, vals)
}

// ToDense materializes m as a dense matrix. Intended for tests and small
// examples only.
func (m *CSR) ToDense() *mat.Dense {
	out := mat.New(m.R, m.C)
	for i := 0; i < m.R; i++ {
		cols, vals := m.Row(i)
		row := out.Row(i)
		for k, c := range cols {
			row[c] += value(vals, k)
		}
	}
	return out
}
