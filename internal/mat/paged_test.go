package mat

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func pagedEqual(p *Paged, d *Dense) bool {
	if p.Rows != d.Rows || p.Cols != d.Cols {
		return false
	}
	for i := 0; i < d.Rows; i++ {
		if !slices.Equal(p.Row(i), d.Row(i)) {
			return false
		}
	}
	return slices.Equal(p.Dense().Data, d.Data)
}

// TestPagedCopyOnWriteChain drives a chain of 200 random WithRows and
// checks the three properties the update path rests on: every version
// equals a plain matrix given the same writes, no earlier version changes
// when a later one is written, and a page no write fell in is the parent's
// page, not a copy.
func TestPagedCopyOnWriteChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, cols = 10*PageRows + 5, 7 // a partial last page
	model := randomDense(rng, n, cols)
	cur := Page(model.Clone())
	type version struct {
		p    *Paged
		want *Dense
	}
	versions := []version{{cur, model.Clone()}}
	for step := 0; step < 200; step++ {
		ids := rng.Perm(n)[:1+rng.Intn(6)]
		rows := randomDense(rng, len(ids), cols)
		next := cur.WithRows(ids, rows)
		dirty := map[int]bool{}
		for j, i := range ids {
			copy(model.Row(i), rows.Row(j))
			dirty[i/PageRows] = true
		}
		for k := range next.Pages() {
			if shared := next.SamePage(cur, k); shared == dirty[k] {
				t.Fatalf("step %d: page %d shared with parent = %v, written = %v", step, k, shared, dirty[k])
			}
		}
		cur = next
		versions = append(versions, version{cur, model.Clone()})
	}
	for v, ver := range versions {
		if !pagedEqual(ver.p, ver.want) {
			t.Fatalf("version %d differs from the plain matrix with the same writes (a later write reached it, or its own was lost)", v)
		}
	}
}

// TestPagedConcurrentReaders holds readers on version v while v+1…v+k
// are written from it; under -race a write through a shared page is a
// reported race, and every read must see v's values.
func TestPagedConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, cols = 6 * PageRows, 5
	want := randomDense(rng, n, cols)
	v := Page(want.Clone())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !pagedEqual(v, want) {
					t.Error("a reader of version v saw a later version's write")
					return
				}
			}
		}()
	}
	cur := v
	for step := 0; step < 100; step++ {
		ids := rng.Perm(n)[:3]
		cur = cur.WithRows(ids, randomDense(rng, len(ids), cols))
	}
	close(stop)
	wg.Wait()
}

// TestPagedMulRangeMatchesParMul: any row range of the paged product is
// bit for bit the same rows of the contiguous one, for any worker count,
// including ranges that start and end inside a page.
func TestPagedMulRangeMatchesParMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 5*PageRows+3, 12)
	b := randomDense(rng, 12, 9)
	p := Page(a.Clone()).WithRows([]int{4, 40}, a.RowSlice(0, 2)) // two private pages among shared ones
	copy(a.Row(4), a.Row(0))
	copy(a.Row(40), a.Row(1))
	want := ParMul(a, b, 1)
	for _, r := range [][2]int{{0, a.Rows}, {3, 3}, {5, 21}, {PageRows, 2 * PageRows}, {a.Rows - 2, a.Rows}} {
		for _, nb := range []int{1, 2, 7} {
			got := p.MulRange(r[0], r[1], b, nb)
			if !slices.Equal(got.Data, want.RowSlice(r[0], r[1]).Data) {
				t.Fatalf("MulRange[%d,%d) nb=%d differs from the contiguous product", r[0], r[1], nb)
			}
		}
	}
}
