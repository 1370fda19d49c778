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
//
// A CSR is stored as row pages, each its own memory, never a window into
// an array that spans other pages: a matrix holds its own size whatever
// chain of merges produced it.
package sparse

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sort"

	"pane/internal/mat"
)

// CSR is an immutable sparse matrix in compressed sparse row format,
// stored as row pages of mat.PageRows rows (of one row for a transpose
// built by TByRow): row i's entries are a contiguous run of (column,
// value) pairs, sorted by column, inside page i/PageRows; a pattern (see
// Pattern) stores the columns alone, every stored value reading 1. Every
// page is its own memory, so a matrix holds its own size whatever merges
// made it: MergeEntries copies the page slice and rebuilds only the pages
// its entries fall in, sharing every other page with the matrix it came
// from.
type CSR struct {
	R, C  int
	nnz   int
	shift uint // a page holds 1<<shift rows
	pages []*page

	pattern bool // no values are stored: every stored value is 1
}

// page holds up to 1<<shift consecutive rows: local row r is
// cols[ptr[r]:ptr[r+1]] and the matching vals, ptr[0] = 0. vals is nil in
// a pattern's pages.
type page struct {
	ptr  []int
	cols []int32
	vals []float64
}

// pageShift is log2 of mat.PageRows, the rows of a default page.
var pageShift = uint(bits.TrailingZeros(mat.PageRows))

// pagesOf returns the row pointers of r rows, 1<<shift a page, whose row
// i holds rowLen[i] entries, as pages with no entries yet.
func pagesOf(r int, shift uint, rowLen []int) []*page {
	rows := 1 << shift
	pages := make([]*page, (r+rows-1)/rows)
	for k := range pages {
		lo, hi := k*rows, min((k+1)*rows, r)
		ptr := make([]int, hi-lo+1)
		for i := lo; i < hi; i++ {
			ptr[i-lo+1] = ptr[i-lo] + rowLen[i]
		}
		pages[k] = &page{ptr: ptr}
	}
	return pages
}

// newPaged returns an r x c CSR, 1<<shift rows a page, whose row i has
// room for rowLen[i] entries, columns and values zero (columns only for a
// pattern): its producer fills them in place.
func newPaged(r, c int, shift uint, rowLen []int, pattern bool) *CSR {
	m := &CSR{R: r, C: c, shift: shift, pages: pagesOf(r, shift, rowLen), pattern: pattern}
	for _, pg := range m.pages {
		pg.cols = make([]int32, pg.ptr[len(pg.ptr)-1])
		if !pattern {
			pg.vals = make([]float64, len(pg.cols))
		}
		m.nnz += len(pg.cols)
	}
	return m
}

// FromArrays builds an r x c CSR from a deserialized matrix's arrays, page
// by page and without a contiguous copy: rowPtr says where each row's run
// starts (row i is entries [rowPtr[i], rowPtr[i+1]) of the row-major
// stream), then cols(n) and vals(n) return the next n columns and values,
// called for every page in row order, the columns first; what they return
// becomes the page. vals == nil builds a pattern. The arrays are checked,
// not trusted: a row out of order or with a repeated column would make
// At's binary search and MergeEntries' sorted merge give wrong answers.
func FromArrays(r, c int, rowPtr []uint64, cols func(n int) ([]int32, error), vals func(n int) ([]float64, error)) (*CSR, error) {
	if r < 0 || c < 0 || len(rowPtr) != r+1 || rowPtr[0] != 0 {
		return nil, fmt.Errorf("sparse: %dx%d CSR with %d row pointers", r, c, len(rowPtr))
	}
	rowLen := make([]int, r)
	for i := range rowLen {
		if rowPtr[i+1] < rowPtr[i] {
			return nil, fmt.Errorf("sparse: row pointers decrease at row %d", i)
		}
		rowLen[i] = int(rowPtr[i+1] - rowPtr[i])
	}
	m := &CSR{R: r, C: c, nnz: int(rowPtr[r]), shift: pageShift, pages: pagesOf(r, pageShift, rowLen), pattern: vals == nil}
	for _, pg := range m.pages {
		var err error
		if pg.cols, err = cols(pg.ptr[len(pg.ptr)-1]); err != nil {
			return nil, err
		}
	}
	for k, pg := range m.pages {
		if vals != nil {
			var err error
			if pg.vals, err = vals(len(pg.cols)); err != nil {
				return nil, err
			}
		}
		for lr := range len(pg.ptr) - 1 {
			i := k<<pageShift + lr
			for j := pg.ptr[lr]; j < pg.ptr[lr+1]; j++ {
				if col := pg.cols[j]; col < 0 || int(col) >= c {
					return nil, fmt.Errorf("sparse: column %d out of range in row %d", col, i)
				} else if j > pg.ptr[lr] && col <= pg.cols[j-1] {
					return nil, fmt.Errorf("sparse: row %d is not strictly ascending (column %d after %d)", i, col, pg.cols[j-1])
				}
			}
		}
	}
	return m, nil
}

// Pattern returns m as a pattern: the same rows and columns with no values
// stored, every stored value reading 1. Its pages share m's row pointers
// and columns and drop the values. It refuses a matrix storing any other
// value; a pattern is returned as it is.
func (m *CSR) Pattern() (*CSR, error) {
	if m.pattern {
		return m, nil
	}
	out := *m
	out.pattern, out.pages = true, make([]*page, len(m.pages))
	for k, pg := range m.pages {
		for j, v := range pg.vals {
			if v != 1 {
				return nil, fmt.Errorf("sparse: value %v in row page %d, entry %d, of a pattern, want 1", v, k, j)
			}
		}
		out.pages[k] = &page{ptr: pg.ptr, cols: pg.cols}
	}
	return &out, nil
}

// Pages yields each row page's entries in row order, as columns and
// values (nil for a pattern), shared and read-only.
func (m *CSR) Pages() iter.Seq2[[]int32, []float64] {
	return func(yield func([]int32, []float64) bool) {
		for _, pg := range m.pages {
			if !yield(pg.cols, pg.vals) {
				return
			}
		}
	}
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
	rowLen := make([]int, r)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= r || e.Col < 0 || e.Col >= c {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d", e.Row, e.Col, r, c))
		}
		rowLen[e.Row]++
	}
	m := newPaged(r, c, pageShift, rowLen, false)
	clear(rowLen)
	for _, e := range entries {
		pg, p := m.next(e.Row, rowLen)
		pg.cols[p], pg.vals[p] = int32(e.Col), e.Val
	}
	m.nnz = 0
	for _, pg := range m.pages {
		pg.sortRows()
		m.nnz += len(pg.cols)
	}
	return m
}

// next returns the page of row i and the position in it of the row's next
// entry, fill[i] of the row's entries being placed already.
func (m *CSR) next(i int, fill []int) (*page, int) {
	pg := m.pages[i>>m.shift]
	p := pg.ptr[i&(1<<m.shift-1)] + fill[i]
	fill[i]++
	return pg, p
}

// sortRows sorts each row of the page by column and sums duplicates,
// compacting the page; one that shrinks is copied to its new size.
func (pg *page) sortRows() {
	cols, vals := pg.cols, pg.vals
	w := 0
	for r := range len(pg.ptr) - 1 {
		lo, hi := pg.ptr[r], pg.ptr[r+1]
		sort.Sort(rowSorter{cols: cols[lo:hi], vals: vals[lo:hi]})
		pg.ptr[r] = w
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
	pg.ptr[len(pg.ptr)-1] = w
	if w < len(cols) {
		pg.cols, pg.vals = slices.Clone(cols[:w]), slices.Clone(vals[:w])
	}
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
	rowLen := make([]int, m.C)
	for i := 0; i < m.R; i++ {
		cs, _ := m.Row(i)
		for _, c := range cs {
			rowLen[c]++
		}
	}
	out := newPaged(m.C, m.R, shift, rowLen, m.pattern)
	clear(rowLen)
	for i := 0; i < m.R; i++ {
		cs, vs := m.Row(i)
		for k, c := range cs {
			pg, p := out.next(int(c), rowLen)
			pg.cols[p] = int32(i)
			if vs != nil {
				pg.vals[p] = vs[k]
			}
		}
	}
	return out
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
