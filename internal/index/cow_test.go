package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

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
	iv := BuildIVF(data, IVFConfig{NList: 9, Seed: 3})
	g := grid{z: mat.Page(data), cells: [6]*Table{
		NewExact(data, 1), NewSQ8(data, 3, 1), NewFP16(data, 1), iv, NewIVFSQ(iv, data, 3), NewIVFFP16(iv, data),
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

// checkRuns asserts what reach promises: reading on from any code page
// through as many rows as it reaches gives exactly the codes the pages
// themselves hold — no stretch runs across a page a refresh replaced.
func checkRuns(t *testing.T, label string, tb *Table) {
	t.Helper()
	for l := range tb.blocks {
		b := &tb.blocks[l]
		if b.codes == nil {
			continue
		}
		dim, whole := b.rows.Cols, b.whole()
		for j := 0; j < b.rows.Rows; j += mat.PageRows {
			pg := b.codes[j/mat.PageRows]
			n := min(pg.reach(dim), b.rows.Rows-j)
			if !reflect.DeepEqual(pg.rows(0, n, n, dim), whole.rows(j, j+n, j+n, dim)) {
				t.Fatalf("%s block %d: code run of %d rows from %d is stale", label, l, n, j)
			}
		}
	}
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
		if got.blocks[l].rows.Dense().MaxAbsDiff(want.blocks[l].rows.Dense()) != 0 {
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
// with its parent every page of rows and codes no dirty row is on and
// every list none left or joined, and every earlier generation — read all
// the while by goroutines racing the refreshes — keeps answering exactly
// as it did when it was the newest.
func TestRefreshChainCopyOnWrite(t *testing.T) {
	const rows, dim, cut, steps = 700, 12, 350, 240
	rng := rand.New(rand.NewSource(5))
	data := randMatrix(rows, dim, 21)
	qs := queries(dim, 4, 22)

	whole := buildGrid(data.Clone(), 0)
	shards := [2]grid{buildGrid(data.RowSlice(0, cut).Clone(), 0), buildGrid(data.RowSlice(cut, rows).Clone(), cut)}
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
				shards[s] = shards[s].refresh(local, patch.RowSlice(lo, lo+len(local)))
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
			for _, i := range []int{0, 1, 2} {
				if whole.cells[i].blocks[0].codes[k].shares(prev.cells[i].blocks[0].codes[k]) == dirtyPage[k] {
					t.Fatalf("step %d: cell %d code page %d shared=%v, dirty=%v", step, i, k, !dirtyPage[k], dirtyPage[k])
				}
			}
		}
		iv, old := whole.cells[3].inverted(), prev.cells[3].inverted()
		untouched := 0
		for l := range iv.vecs {
			if iv.vecs[l] != old.vecs[l] {
				continue
			}
			untouched++
			for i := 3; i < 6; i++ {
				nb, ob := whole.cells[i].blocks[l], prev.cells[i].blocks[l]
				if nb.rows != ob.rows || (len(nb.codes) > 0 && !nb.codes[0].shares(ob.codes[0])) {
					t.Fatalf("step %d: cell %d does not share untouched list %d", step, i, l)
				}
			}
		}
		if untouched < len(iv.vecs)-2*len(dirty) {
			t.Fatalf("step %d: %d dirty rows left only %d of %d lists untouched", step, len(dirty), untouched, len(iv.vecs))
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
			rebuilt := whole.cells[3].Rebuild(mat.Page(fresh))
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
// cost: the dirty rows, the page slice, and the halves pages a dirty row
// is on (flat) or the changed lists' halves (inverted).
func TestCertifiedFP16KeysAliasLead(t *testing.T) {
	const rows, dim, steps = 300, 9, 60
	rng := rand.New(rand.NewSource(33))
	data := randMatrix(rows, dim, 34)
	z := mat.Page(data)
	ex := NewExact(data, 1)
	iv := BuildIVF(data, IVFConfig{NList: 5, Seed: 6})
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
				ob := c[1].blocks[b]
				if nb.rows == ob.rows {
					continue
				}
				_, ids := fp.lay.block(b)
				if ids == nil { // patched: the page slice and the pages a dirty row is on
					want.RowsEncoded += int64(len(dirty))
					want.BytesCopied += int64(96 * len(nb.codes))
					for k, pg := range nb.codes {
						if !pg.shares(ob.codes[k]) {
							want.BytesCopied += int64(2 * len(pg.F16))
						}
					}
					continue
				}
				want.BytesCopied += int64(2 * nb.rows.Rows * dim)
			}
			if fp.inverted() != nil { // the changed lists' re-encoded rows, as the lead's
				want.RowsEncoded = lead.Work().RowsEncoded
			}
			if fp.Work() != want {
				t.Fatalf("%s: work %+v, want %+v", label, fp.Work(), want)
			}
			cells[i] = [2]*Table{lead, fp}
		}
	}
}
