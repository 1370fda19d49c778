package mat

import "fmt"

// PageRows is the number of rows per copy-on-write page, for Paged here
// and for sparse.CSR. It is a constant, not a setting: an update copies
// one pointer per page plus every page it dirties, n/PageRows·8 +
// |Δ|·PageRows·rowBytes bytes, and 16 keeps both terms in the tens of
// kilobytes from n = 30,000 (where larger pages would copy mostly
// untouched rows) to n in the millions (where the pointer slice takes
// over) — there is no workload on either side of a second value.
const PageRows = 16

// Paged is an immutable row-major matrix stored as fixed-size row pages:
// page p holds rows [p·PageRows, (p+1)·PageRows), the last page the
// remainder. Every page is its own allocation, so a page is the unit that
// is copied and the unit that is reclaimed: a matrix holds its own size
// whatever write history made it. A new version (WithRows) copies the
// page slice and the pages it writes, and shares every other page with
// its parent, which stays bit for bit what it was for the readers still
// holding it.
type Paged struct {
	Rows, Cols int
	pages      [][]float64
}

// newPaged returns a zero rows x cols matrix.
func newPaged(rows, cols int) *Paged {
	p := &Paged{Rows: rows, Cols: cols, pages: make([][]float64, (rows+PageRows-1)/PageRows)}
	for k := range p.pages {
		p.pages[k] = make([]float64, min(PageRows, rows-k*PageRows)*cols)
	}
	return p
}

// Paged returns a copy of m on pages of its own.
func (m *Dense) Paged() *Paged {
	p := newPaged(m.Rows, m.Cols)
	for k, pg := range p.pages {
		copy(pg, m.Data[k*PageRows*m.Cols:])
	}
	return p
}

// Paged returns p, so a *Paged and a *Dense can both be asked for pages.
func (p *Paged) Paged() *Paged { return p }

// ReadPaged builds a rows x cols matrix page by page in row order:
// next(n) returns the n values of the next page, which become that page,
// or an error. It is how a deserialized matrix is read without a
// contiguous copy.
func ReadPaged(rows, cols int, next func(n int) ([]float64, error)) (*Paged, error) {
	p := &Paged{Rows: rows, Cols: cols}
	for lo := 0; lo < rows; lo += PageRows {
		n := min(PageRows, rows-lo) * cols
		pg, err := next(n)
		if err != nil {
			return nil, err
		}
		p.pages = append(p.pages, pg)
	}
	return p, nil
}

// Row returns row i as a shared slice; it must not be written.
func (p *Paged) Row(i int) []float64 {
	r := i % PageRows
	return p.pages[i/PageRows][r*p.Cols : (r+1)*p.Cols]
}

// Pages returns the row pages in order, shared; concatenated they are the
// matrix's row-major data.
func (p *Paged) Pages() [][]float64 { return p.pages }

// SamePage reports whether page k of p and q is the same memory — what an
// update that did not touch the page guarantees.
func (p *Paged) SamePage(q *Paged, k int) bool { return &p.pages[k][0] == &q.pages[k][0] }

// Dense returns a contiguous copy of p.
func (p *Paged) Dense() *Dense {
	out := New(p.Rows, p.Cols)
	at := 0
	for _, pg := range p.pages {
		at += copy(out.Data[at:], pg)
	}
	return out
}

// WithRows returns a version of p whose row ids[j] is rows.Row(j); only
// the pages holding those rows are copied.
func (p *Paged) WithRows(ids []int, rows *Dense) *Paged {
	if rows.Rows != len(ids) || rows.Cols != p.Cols {
		panic(fmt.Sprintf("mat: WithRows %d ids, rows %dx%d, matrix width %d", len(ids), rows.Rows, rows.Cols, p.Cols))
	}
	out := &Paged{Rows: p.Rows, Cols: p.Cols, pages: append([][]float64(nil), p.pages...)}
	for j, i := range ids {
		k := i / PageRows
		if out.SamePage(p, k) {
			out.pages[k] = append([]float64(nil), p.pages[k]...)
		}
		r := i % PageRows
		copy(out.pages[k][r*p.Cols:(r+1)*p.Cols], rows.Row(j))
	}
	return out
}

// view returns rows [i, i+n) of p, which lie on one page, as a matrix
// view of that page.
func (p *Paged) view(i, n int) *Dense {
	r := i % PageRows
	return &Dense{Rows: n, Cols: p.Cols, Data: p.pages[i/PageRows][r*p.Cols : (r+n)*p.Cols]}
}

// MulRange returns rows [lo, hi) of p times b, written straight onto the
// result's pages by nb workers each owning a row range. gemmRows computes
// every output row on its own, so the block is bit-identical to the same
// rows of a contiguous ParMul.
func (p *Paged) MulRange(lo, hi int, b *Dense, nb int) *Paged {
	if p.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulRange inner dimension mismatch %dx%d * %dx%d", p.Rows, p.Cols, b.Rows, b.Cols))
	}
	if lo < 0 || hi < lo || hi > p.Rows {
		panic(fmt.Sprintf("mat: MulRange [%d,%d) out of range for %d rows", lo, hi, p.Rows))
	}
	out := newPaged(hi-lo, b.Cols)
	ParallelRanges(hi-lo, nb, func(wlo, whi int) {
		for i := wlo; i < whi; {
			n := min(PageRows-(lo+i)%PageRows, PageRows-i%PageRows, whi-i)
			gemmRows(out.view(i, n), p.view(lo+i, n), b, 0, n)
			i += n
		}
	})
	return out
}
