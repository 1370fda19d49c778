package graph

import (
	"math/rand"
	"sync"
	"testing"

	"pane/internal/mat"
	"pane/internal/sparse"
)

// sameGraph reports whether g and want agree bit for bit on everything an
// edge update maintains: Adj, AdjT, the walk matrices and the out-degrees.
func sameGraph(g, want *Graph) bool {
	gp, gpt := g.Walk()
	wp, wpt := want.Walk()
	if !csrsEqual(g.Adj, want.Adj) || !csrsEqual(g.AdjT, want.AdjT) || !csrsEqual(gp, wp) || !csrsEqual(gpt, wpt) {
		return false
	}
	for v := 0; v < g.N; v++ {
		if g.OutDegree(v) != want.OutDegree(v) {
			return false
		}
	}
	return true
}

// pagesOf marks the pages holding the given rows.
func pagesOf(rows []int) map[int]bool {
	out := map[int]bool{}
	for _, r := range rows {
		out[r/mat.PageRows] = true
	}
	return out
}

// checkShared fails unless next shares with prev exactly the pages outside
// dirty — the O(Δ) property read off the structure: an untouched page is
// the parent's memory, a touched one is not.
func checkShared(t *testing.T, what string, step int, prev, next *sparse.CSR, dirty map[int]bool) {
	t.Helper()
	for k := 0; k*mat.PageRows < prev.R; k++ {
		if shared := next.SamePage(prev, k); shared == dirty[k] {
			t.Fatalf("step %d: %s page %d shared with parent = %v, touched = %v", step, what, k, shared, dirty[k])
		}
	}
}

// TestWithUpdatesChain applies 240 random edge batches one after another
// and checks the copy-on-write contract of the paged graph: the chain's
// head equals graph.New on the union edge list bit for bit (Adj, AdjT,
// P, Pᵀ, out-degrees), every retained earlier version still equals its
// own from-scratch build after all later updates, and each step shares
// with its parent every page the batch did not touch.
func TestWithUpdatesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 9*mat.PageRows + 7 // a partial last page
	var union []Edge
	for i := 0; i < 3*n; i++ {
		union = append(union, Edge{rng.Intn(n), rng.Intn(n)})
	}
	build := func() *Graph {
		g, err := New(n, 0, union, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cur := build()
	cur.Walk() // materialize the cache so every step patches it
	type version struct{ got, want *Graph }
	var kept []version
	for step := 0; step < 240; step++ {
		batch := make([]Edge, 1+rng.Intn(8))
		var srcs, dsts []int
		for i := range batch {
			batch[i] = Edge{rng.Intn(n), rng.Intn(n)}
			if rng.Intn(4) == 0 && len(union) > 0 {
				batch[i] = union[rng.Intn(len(union))] // re-insert an existing edge
			}
			srcs = append(srcs, batch[i].Src)
			dsts = append(dsts, batch[i].Dst)
		}
		next, err := cur.WithUpdates(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, batch...)
		// Pᵀ changes in the rows of every out-neighbour of a source.
		var nbrs []int
		for _, u := range srcs {
			for _, c := range next.OutNeighbors(u) {
				nbrs = append(nbrs, int(c))
			}
		}
		cp, cpt := cur.Walk()
		np, npt := next.Walk()
		checkShared(t, "Adj", step, cur.Adj, next.Adj, pagesOf(srcs))
		checkShared(t, "AdjT", step, cur.AdjT, next.AdjT, pagesOf(dsts))
		checkShared(t, "P", step, cp, np, pagesOf(srcs))
		checkShared(t, "Pt", step, cpt, npt, pagesOf(nbrs))
		cur = next
		if step%20 == 19 {
			kept = append(kept, version{cur, build()})
		}
	}
	for i, v := range kept {
		if !sameGraph(v.got, v.want) {
			t.Fatalf("version after %d updates differs from graph.New on its edge list", 20*(i+1))
		}
	}
}

// TestWithUpdatesConcurrentReaders holds readers on version v while
// v+1…v+k are derived from it: every read must see v, and under -race a
// write through a page v shares with a later version is a reported race.
func TestWithUpdatesConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 6 * mat.PageRows
	var edges []Edge
	for i := 0; i < 4*n; i++ {
		edges = append(edges, Edge{rng.Intn(n), rng.Intn(n)})
	}
	v, err := New(n, 0, edges, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.Walk()
	want, err := New(n, 0, edges, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
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
				if !sameGraph(v, want) {
					t.Error("a reader of version v saw a later version's update")
					return
				}
			}
		}()
	}
	cur := v
	for step := 0; step < 100; step++ {
		batch := []Edge{{rng.Intn(n), rng.Intn(n)}, {rng.Intn(n), rng.Intn(n)}}
		if cur, err = cur.WithUpdates(batch, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
