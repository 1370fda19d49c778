package index

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"pane/internal/core"
	"pane/internal/mat"
)

// grid is the six cells over one candidate block, as the engine holds
// them: three flat cells and three inverted ones sharing one layout.
type grid struct {
	z     *mat.Paged
	cells [6]*Table // exact, sq8, fp16, ivf, ivfsq, ivffp16
}

func buildGrid(data *mat.Dense, base int) grid {
	z := data.Paged()
	iv := BuildIVF(z, IVFConfig{NList: 9, Seed: 3})
	g := grid{z: z, cells: [6]*Table{
		NewExact(z, 1), NewSQ8(z, 3, 1), NewFP16(z, 1), iv, NewIVFSQ(iv, data, 3), NewIVFFP16(iv, data),
	}}
	for i, c := range g.cells {
		g.cells[i] = c.Shift(base)
	}
	return g
}

// refresh is the engine's refreshSpace: the block WithRows, the flat cells
// on their own, the inverted compressed cells behind the float64 one.
func (g grid) refresh(dirty []int, patch *mat.Dense) grid {
	next := grid{z: g.z.WithRows(dirty, patch)}
	for i, c := range g.cells {
		var lead *Table
		if i > 3 {
			lead = next.cells[3]
		}
		next.cells[i] = c.Refresh(next.z, dirty, lead)
	}
	return next
}

// answers searches every cell (the inverted ones at their default probe
// and at full probe) with every query.
func (g grid) answers(qs [][]float64) (out [][]core.Scored) {
	for _, c := range g.cells {
		for _, q := range qs {
			out = append(out, c.Search(q, 7, Options{}), c.Search(q, 7, Options{NProbe: 1 << 20}))
		}
	}
	return out
}

// checkRuns asserts that every code page of tb holds one row kernel run —
// min(runRows, rows left) rows, padded to a whole group for int8 codes —
// in memory no other page of tb shares, so every scan runs 64 rows a
// kernel call whatever a refresh chain replaced.
func checkRuns(t *testing.T, label string, tb *Table) {
	t.Helper()
	type extent struct{ lo, hi uintptr }
	var mem []extent
	add := func(p unsafe.Pointer, n, size int) {
		if n > 0 {
			mem = append(mem, extent{uintptr(p), uintptr(p) + uintptr(n*size)})
		}
	}
	dim := tb.data.Cols
	for l := range tb.blocks {
		b := &tb.blocks[l]
		if len(b.codes) != (b.n+runRows-1)/runRows {
			t.Fatalf("%s block %d: %d code pages for %d rows", label, l, len(b.codes), b.n)
		}
		for k, pg := range b.codes {
			n := min(runRows, b.n-k*runRows)
			if pg.Scale != nil && (len(pg.Scale) != padRows(n) || len(pg.Base) != padRows(n) || len(pg.I8) != padRows(n)*i8Width(dim)) ||
				pg.F16 != nil && len(pg.F16) != n*dim {
				t.Fatalf("%s block %d page %d: holds %d parameters, %d codes, %d halves for %d rows", label, l, k, len(pg.Scale), len(pg.I8), len(pg.F16), n)
			}
			add(unsafe.Pointer(unsafe.SliceData(pg.I8)), cap(pg.I8), 1)
			add(unsafe.Pointer(unsafe.SliceData(pg.Scale)), cap(pg.Scale), 4)
			add(unsafe.Pointer(unsafe.SliceData(pg.Base)), cap(pg.Base), 4)
			add(unsafe.Pointer(unsafe.SliceData(pg.F16)), cap(pg.F16), 2)
		}
	}
	slices.SortFunc(mem, func(a, b extent) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(mem); i++ {
		if mem[i].lo < mem[i-1].hi {
			t.Fatalf("%s: two code pages share memory", label)
		}
	}
}

// touched returns what a refresh over dirty did to block b of next, which
// descends from prev: whether the block kept prev's members (always, flat;
// its ids the same memory, inverted), and the code pages of next a dirty
// row is on.
func touched(prev, next *Table, b int, dirty []int) (kept bool, pages map[int]bool) {
	n, ids := next.lay.block(b)
	_, was := prev.lay.block(b)
	kept = ids == nil || len(ids) == len(was) && (n == 0 || &ids[0] == &was[0])
	pages = map[int]bool{}
	for j := range n {
		if id := (&span{ids: ids}).local(j); slices.Contains(dirty, id) {
			pages[j/runRows] = true
		}
	}
	return kept, pages
}

// sameEncoding asserts two tables hold bit-identical blocks: members,
// rows and codes.
func sameEncoding(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if len(got.blocks) != len(want.blocks) {
		t.Fatalf("%s: %d blocks, want %d", label, len(got.blocks), len(want.blocks))
	}
	for l := range want.blocks {
		_, gi := got.lay.block(l)
		_, wi := want.lay.block(l)
		if !reflect.DeepEqual(gi, wi) && (len(gi) > 0 || len(wi) > 0) {
			t.Fatalf("%s block %d: members differ", label, l)
		}
		if got.blockRows(l).MaxAbsDiff(want.blockRows(l)) != 0 {
			t.Fatalf("%s block %d: rows differ", label, l)
		}
		if g, w := got.blocks[l].whole(), want.blocks[l].whole(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s block %d: codes differ", label, l)
		}
	}
}

// TestRefreshChainCopyOnWrite chains random dirty-row refreshes over all
// six cells, unsharded and in two shards cut off a page boundary, and
// holds the chain to the copy-on-write contract: every generation equals
// a fresh build (flat) or a Rebuild against the frozen quantizer
// (inverted) bit for bit, sharded equals unsharded, a generation shares
// with its parent every page of rows no dirty row is on, the ids of every
// list none left or joined and every code page of such a block no dirty
// row is on, every code page holds one row kernel run in memory of its
// own, and every earlier generation — read all the while by goroutines
// racing the refreshes — keeps answering exactly as it did when it was
// the newest.
func TestRefreshChainCopyOnWrite(t *testing.T) {
	const rows, dim, cut, steps = 700, 12, 350, 240
	rng := rand.New(rand.NewSource(5))
	data := randMatrix(rows, dim, 21)
	qs := queries(dim, 4, 22)

	whole := buildGrid(data.Clone(), 0)
	shards := [2]grid{buildGrid(data.RowView(0, cut).Clone(), 0), buildGrid(data.RowView(cut, rows).Clone(), cut)}
	bounds := [3]int{0, cut, rows}

	type retained struct {
		g    grid
		want [][]core.Scored
	}
	var mu sync.Mutex
	kept := []retained{{whole, whole.answers(qs)}}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				k := kept[i%len(kept)]
				mu.Unlock()
				if !reflect.DeepEqual(k.g.answers(qs), k.want) {
					t.Errorf("a retained generation changed its answers under a later refresh")
					return
				}
			}
		}(r)
	}

	for step := 1; step <= steps; step++ {
		// 1–6 dirty rows, ascending; now and then two on one page.
		set := map[int]bool{}
		for n := 1 + rng.Intn(6); len(set) < n; {
			r := rng.Intn(rows)
			set[r] = true
			if rng.Intn(4) == 0 {
				set[min(r+1, rows-1)] = true
			}
		}
		var dirty []int
		for r := 0; r < rows; r++ {
			if set[r] {
				dirty = append(dirty, r)
			}
		}
		patch := mat.New(len(dirty), dim)
		for j, r := range dirty {
			for p := range patch.Row(j) {
				patch.Row(j)[p] = rng.NormFloat64()
			}
			copy(data.Row(r), patch.Row(j))
		}

		prev := whole
		whole = whole.refresh(dirty, patch)
		for s := range shards {
			var local []int
			var lo int
			for j, r := range dirty {
				if r >= bounds[s] && r < bounds[s+1] {
					if local == nil {
						lo = j
					}
					local = append(local, r-bounds[s])
				}
			}
			if local != nil {
				shards[s] = shards[s].refresh(local, patch.RowView(lo, lo+len(local)))
			}
		}

		// Structure: what the delta did not touch is the parent's memory.
		dirtyPage := map[int]bool{}
		for _, r := range dirty {
			dirtyPage[r/mat.PageRows] = true
		}
		for k := range whole.z.Pages() {
			if whole.z.SamePage(prev.z, k) == dirtyPage[k] {
				t.Fatalf("step %d: Z page %d shared=%v, dirty=%v", step, k, !dirtyPage[k], dirtyPage[k])
			}
		}
		// A block no dirty row joined or left keeps its ids and every code
		// page no dirty row is on: every flat block, and every list but those
		// a dirty row moved out of or into.
		iv, old := whole.cells[3].inverted(), prev.cells[3].inverted()
		moved := map[int]bool{}
		for _, r := range dirty {
			if o, n := old.home(r), iv.home(r); o != n {
				moved[int(o)], moved[int(n)] = true, true
			}
		}
		for i, c := range whole.cells {
			for b := range c.blocks {
				kept, pages := touched(prev.cells[i], c, b, dirty)
				if i >= 3 && kept == moved[b] {
					t.Fatalf("step %d: cell %d list %d kept its ids=%v, a dirty row moved in or out=%v", step, i, b, kept, moved[b])
				}
				if !kept {
					continue
				}
				for k, pg := range c.blocks[b].codes {
					if pg.shares(prev.cells[i].blocks[b].codes[k]) == pages[k] {
						t.Fatalf("step %d: cell %d block %d code page %d shared=%v, dirty=%v", step, i, b, k, !pages[k], pages[k])
					}
				}
			}
		}
		for i, c := range whole.cells {
			checkRuns(t, fmt.Sprintf("step %d cell %d", step, i), c)
		}

		// Sharded = unsharded, every step; retained generations pile up
		// for the readers.
		got := whole.answers(qs)
		at := 0
		for i := range whole.cells {
			subs := []Index{shards[0].cells[i], shards[1].cells[i]}
			for _, q := range qs {
				// Default probes differ between one quantizer and two; the
				// full-probe answers are the comparable ones.
				sameResults(t, fmt.Sprintf("step %d cell %d sharded", step, i),
					got[at+1], SearchSharded(subs, q, 7, Options{NProbe: 1 << 20}))
				at += 2
			}
		}
		if step%8 == 0 {
			mu.Lock()
			kept = append(kept, retained{whole, got})
			mu.Unlock()
		}

		// Bit for bit a fresh build, every so often and at the end.
		if step%40 == 0 {
			fresh := data.Clone()
			sameEncoding(t, "exact", whole.cells[0], NewExact(fresh, 1))
			sameEncoding(t, "sq8", whole.cells[1], NewSQ8(fresh, 3, 1))
			sameEncoding(t, "fp16", whole.cells[2], NewFP16(fresh, 1))
			rebuilt := whole.cells[3].Rebuild(fresh.Paged())
			sameEncoding(t, "ivf", whole.cells[3], rebuilt)
			sameEncoding(t, "ivfsq", whole.cells[4], rebuilt.Encode(I8, 3))
			sameEncoding(t, "ivffp16", whole.cells[5], rebuilt.Encode(F16, 0))
			for i := range data.Rows {
				if whole.cells[3].inverted().home(i) != rebuilt.inverted().home(i) {
					t.Fatalf("step %d: stored assignment of row %d differs from a rebuild's", step, i)
				}
			}
		}
	}
	close(stop)
	readers.Wait()
	for i, k := range kept {
		if !reflect.DeepEqual(k.g.answers(qs), k.want) {
			t.Fatalf("retained generation %d of %d no longer answers as it did", i, len(kept))
		}
	}
}

// TestCertifiedFP16KeysAliasLead: a binary16 cell built or refreshed
// over a float64 cell holds no int8 encoding of its own — every
// int8 page it scans is the float64 cell's page at the same position —
// and along a refresh chain it encodes and copies exactly what its halves
// cost: the dirty rows, and in each block a dirty row is in, the page
// slice and the halves pages a dirty row is on (a block that kept its
// members: every flat one) or all its halves (a list a dirty row left or
// joined).
func TestCertifiedFP16KeysAliasLead(t *testing.T) {
	const rows, dim, steps = 300, 9, 60
	rng := rand.New(rand.NewSource(33))
	data := randMatrix(rows, dim, 34)
	z := data.Paged()
	ex := NewExact(z, 1)
	iv := BuildIVF(z, IVFConfig{NList: 5, Seed: 6})
	cells := [][2]*Table{
		{ex, ex.Encode(F16, 0)},
		{iv, iv.Encode(F16, 0)},
	}
	aliased := func(label string, lead, fp *Table) {
		t.Helper()
		for b := range fp.blocks {
			keys, own := fp.blocks[b].keys, lead.blocks[b].codes
			if len(keys) != len(own) {
				t.Fatalf("%s block %d: %d int8 pages, lead has %d", label, b, len(keys), len(own))
			}
			for k := range keys {
				if len(own[k].Scale) > 0 && (&keys[k].I8[0] != &own[k].I8[0] || &keys[k].Scale[0] != &own[k].Scale[0] || &keys[k].Base[0] != &own[k].Base[0]) {
					t.Fatalf("%s block %d page %d: int8 slices are not the lead's", label, b, k)
				}
			}
			for _, pg := range fp.blocks[b].codes {
				if pg.I8 != nil || pg.Scale != nil || pg.Base != nil {
					t.Fatalf("%s block %d: a halves page holds int8 slices", label, b)
				}
			}
		}
	}
	for i, c := range cells {
		aliased(fmt.Sprintf("cell %d built", i), c[0], c[1])
	}
	for step := 1; step <= steps; step++ {
		set := map[int]bool{}
		for n := 1 + rng.Intn(5); len(set) < n; {
			set[rng.Intn(rows)] = true
		}
		var dirty []int
		for r := range rows {
			if set[r] {
				dirty = append(dirty, r)
			}
		}
		patch := mat.New(len(dirty), dim)
		for j := range patch.Data {
			patch.Data[j] = rng.NormFloat64()
		}
		z = z.WithRows(dirty, patch)
		for i, c := range cells {
			lead := c[0].Refresh(z, dirty, nil)
			fp := c[1].Refresh(z, dirty, lead)
			label := fmt.Sprintf("cell %d step %d", i, step)
			aliased(label, lead, fp)
			var want Work
			for b, nb := range fp.blocks {
				kept, pages := touched(c[1], fp, b, dirty)
				switch {
				case kept && len(pages) == 0:
				case kept: // patched: the page slice and the pages a dirty row is on
					want.BytesCopied += int64(96 * len(nb.codes))
					for k, pg := range nb.codes {
						if pages[k] {
							want.BytesCopied += int64(2 * len(pg.F16))
						}
					}
				default: // re-made
					want.BytesCopied += int64(2 * nb.n * dim)
				}
			}
			want.RowsEncoded = int64(len(dirty)) // each once, in the one block that holds it
			if fp.Work() != want {
				t.Fatalf("%s: work %+v, want %+v", label, fp.Work(), want)
			}
			cells[i] = [2]*Table{lead, fp}
		}
	}
}

// TestInvertedListsHoldNoRows: an inverted file's lists are ids and codes
// only. Every row a built or refreshed inverted cell scores is the
// candidate matrix's own memory, not a copy, and the books count the
// codes a build or refresh writes and nothing for float64 lists — at
// 8·dim + 4 bytes a row, copied lists were the larger part of an
// inverted cell and of what a refresh copied.
func TestInvertedListsHoldNoRows(t *testing.T) {
	const n, dim = 700, 24
	data := mixture(n, dim, 5, 131)
	z := data.Paged()
	iv := BuildIVF(z, IVFConfig{NList: 9, Seed: 3, Threads: 2})
	aliasesRows := func(label string, tab *Table, z *mat.Paged) {
		t.Helper()
		for b := range tab.blocks {
			n, ids := tab.lay.block(b)
			s := span{ids: ids, data: tab.data}
			for j := range n {
				if &s.row(j)[0] != &z.Row(int(ids[j]))[0] {
					t.Fatalf("%s list %d row %d: scored from a copy, not the candidate matrix", label, b, j)
				}
			}
		}
	}
	codeBytes := func(tab, prev *Table, dirty []int) (c int64) {
		for b, blk := range tab.blocks {
			kept, pages := false, map[int]bool(nil)
			if prev != nil {
				kept, pages = touched(prev, tab, b, dirty)
			}
			if kept && len(pages) > 0 {
				c += int64(96 * len(blk.codes))
			}
			for k, pg := range blk.codes {
				if !kept || pages[k] {
					c += pg.bytes()
				}
			}
		}
		return c
	}
	aliasesRows("build", iv, z)
	if got, want := iv.Work().BytesCopied, codeBytes(iv, nil, nil); got != want {
		t.Fatalf("build copied %d bytes, its codes are %d", got, want)
	}
	rng := rand.New(rand.NewSource(132))
	for step := range 4 {
		dirty := []int{3 + step, 90 + 7*step, 400 + 11*step, n - 1 - step}
		patch := mat.New(len(dirty), dim)
		for j := range patch.Data {
			patch.Data[j] = rng.NormFloat64()
		}
		z = z.WithRows(dirty, patch)
		next := iv.Refresh(z, dirty, nil)
		label := fmt.Sprintf("refresh %d", step)
		aliasesRows(label, next, z)
		if got, want := next.Work().BytesCopied, codeBytes(next, iv, dirty); got != want {
			t.Fatalf("%s copied %d bytes, its re-made lists' codes and patched pages are %d", label, got, want)
		}
		iv = next
	}
}
