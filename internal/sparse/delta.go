package sparse

import (
	"fmt"
	"sort"

	"pane/internal/mat"
)

// This file holds the delta primitives the dynamic-update path builds on:
// Reach computes the t-hop frontier a CSR delta can influence, and
// MergeEntries folds a small entry delta into an existing CSR, rebuilding
// only the row pages the entries fall in. Neither touches memory in
// proportion to the matrix beyond one pointer per page.

// Reach returns, sorted ascending, every row reachable from seeds in at
// most steps hops along m's rows (row j's neighbors are its stored column
// indices). steps < 0 is treated as 0; seeds themselves are always
// included (dedup'd). Out-of-range seeds cause a panic. Time and memory
// are proportional to the rows reached and their entries, not to m.
//
// The intended use is frontier computation for incremental APMI: a change
// to rows S of the recurrence input can, after ℓ iterations, influence
// exactly the rows whose ℓ-hop neighborhood (along the dependency
// direction) meets S — so callers pass the dependency graph (AdjT for the
// forward recurrence, Adj for the backward one) and steps = remaining
// iterations.
func Reach(m *CSR, seeds []int, steps int) []int {
	visited := make(map[int]struct{}, len(seeds))
	out := make([]int, 0, len(seeds))
	visit := func(i int) {
		if _, ok := visited[i]; !ok {
			visited[i] = struct{}{}
			out = append(out, i)
		}
	}
	for _, s := range seeds {
		if s < 0 || s >= m.R {
			panic(fmt.Sprintf("sparse: Reach seed %d out of range [0,%d)", s, m.R))
		}
		visit(s)
	}
	// out[lo:hi] is the frontier of the current step.
	for lo, step := 0, 0; step < steps && lo < len(out); step++ {
		hi := len(out)
		for _, j := range out[lo:hi] {
			cols, _ := m.Row(j)
			for _, c := range cols {
				visit(int(c))
			}
		}
		lo = hi
	}
	sort.Ints(out)
	return out
}

// MergeEntries returns a new CSR equal to m with entries folded in. For
// each entry (r, c, v): when (r, c) is already stored with value old, the
// stored value becomes combine(old, v); otherwise the entry is inserted
// with value combine(0, v). Duplicates within entries apply combine
// successively in (row, col)-sorted order. Only the pages holding an
// entry's row are rebuilt (a sorted merge per row, no re-sort); every
// other page is shared with m, so the merge costs O(R/PageRows + nnz of
// the touched pages + |entries| log |entries|). With no entries, m itself
// is returned (CSRs are immutable by convention). Out-of-range entries
// cause a panic, matching NewCSR.
func (m *CSR) MergeEntries(entries []Entry, combine func(old, add float64) float64) *CSR {
	if len(entries) == 0 {
		return m
	}
	add := make([]Entry, len(entries))
	copy(add, entries)
	for _, e := range add {
		if e.Row < 0 || e.Row >= m.R || e.Col < 0 || e.Col >= m.C {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d", e.Row, e.Col, m.R, m.C))
		}
	}
	sort.Slice(add, func(i, j int) bool {
		if add[i].Row != add[j].Row {
			return add[i].Row < add[j].Row
		}
		return add[i].Col < add[j].Col
	})
	out := &CSR{R: m.R, C: m.C, nnz: m.nnz, pages: append([]*page(nil), m.pages...)}
	for len(add) > 0 {
		k := add[0].Row / mat.PageRows
		n := sort.Search(len(add), func(j int) bool { return add[j].Row/mat.PageRows > k })
		out.pages[k] = m.pages[k].merge(k*mat.PageRows, add[:n], combine)
		out.nnz += out.pages[k].nnz() - m.pages[k].nnz()
		add = add[n:]
	}
	return out
}

// merge rebuilds one page with add folded in; add is sorted by (row, col)
// and lies within the page, whose first row is base.
func (pg *page) merge(base int, add []Entry, combine func(old, add float64) float64) *page {
	rows := len(pg.ptr) - 1
	ptr := make([]int, rows+1)
	cols := make([]int32, 0, pg.nnz()+len(add))
	vals := make([]float64, 0, pg.nnz()+len(add))
	a := 0
	for r := 0; r < rows; r++ {
		i := base + r
		k, hi := pg.ptr[r], pg.ptr[r+1]
		if a >= len(add) || add[a].Row != i {
			cols = append(cols, pg.cols[k:hi]...)
			vals = append(vals, pg.vals[k:hi]...)
			k = hi
		}
		for k < hi || (a < len(add) && add[a].Row == i) {
			adding := a < len(add) && add[a].Row == i
			switch {
			case !adding || (k < hi && int(pg.cols[k]) < add[a].Col):
				cols = append(cols, pg.cols[k])
				vals = append(vals, pg.vals[k])
				k++
			case k < hi && int(pg.cols[k]) == add[a].Col:
				v := pg.vals[k]
				for a < len(add) && add[a].Row == i && add[a].Col == int(pg.cols[k]) {
					v = combine(v, add[a].Val)
					a++
				}
				cols = append(cols, pg.cols[k])
				vals = append(vals, v)
				k++
			default:
				c := add[a].Col
				var v float64
				for a < len(add) && add[a].Row == i && add[a].Col == c {
					v = combine(v, add[a].Val)
					a++
				}
				cols = append(cols, int32(c))
				vals = append(vals, v)
			}
		}
		ptr[r+1] = len(cols)
	}
	return &page{ptr: ptr, cols: cols, vals: vals}
}
