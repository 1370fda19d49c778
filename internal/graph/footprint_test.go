package graph

import (
	"math/rand"
	"runtime"
	"testing"
)

// benchShaped builds a graph of the serving benchmark's shape: n nodes
// with 8 random out-edges and 6 attribute entries each over d attributes.
func benchShaped(n, d int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, 8*n)
	attrs := make([]AttrEntry, 0, 6*n)
	for v := 0; v < n; v++ {
		for k := 0; k < 8; k++ {
			edges = append(edges, Edge{Src: v, Dst: rng.Intn(n)})
		}
		for k := 0; k < 6; k++ {
			attrs = append(attrs, AttrEntry{Node: v, Attr: rng.Intn(d), Weight: 1})
		}
	}
	g, err := New(n, d, edges, attrs, nil)
	if err != nil {
		panic(err)
	}
	return g
}

// heapGrowth returns how much the live heap grows across f.
func heapGrowth(f func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestDerivedFootprintBound is the memory gate of a graph's edges and of
// its derived cache on a bench-shaped graph (n = 30,000, m ≈ 240k,
// d = 100). Adj and AdjT are patterns, a 4 B column per entry plus row
// pointers and page headers, so the graph of the edges alone holds at most
// 4 MB; with 12 B entries it held 7 MB, and P and Pᵀ as CSRs of their own
// added 5.4 MB.
// Materializing P, Pᵀ and Rc's column factors then grows the heap by at
// most 64 KiB: a d-vector, since P and Pᵀ are views of the adjacency —
// never an n-vector (240 KB) nor a copy of the adjacency (5.4 MB when P
// and Pᵀ were CSRs; dense Rr and Rc made it 52 MB).
func TestDerivedFootprintBound(t *testing.T) {
	g := benchShaped(30000, 100, 1)
	edges := g.Edges()
	var edgeOnly *Graph
	held := heapGrowth(func() {
		var err error
		if edgeOnly, err = New(g.N, 0, edges, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	runtime.KeepAlive(edges)
	runtime.KeepAlive(edgeOnly)
	if held > 4e6 {
		t.Fatalf("the graph of %d edges holds %d bytes, over the 4 MB bound", len(edges), held)
	}
	t.Logf("the graph of %d edges holds %d bytes", len(edges), held)
	grown := heapGrowth(func() {
		g.Walk()
		g.NormalizedAttrs()
	})
	runtime.KeepAlive(g)
	if grown > 64<<10 {
		t.Fatalf("the derived cache grows the heap by %d bytes, over the 64 KiB bound", grown)
	}
	t.Logf("the derived cache grows the heap by %d bytes", grown)
}

// TestWithUpdatesAttrAllocationBound is the O(Δ) gate of an attribute
// update: an 8-entry delta on a bench-shaped graph with its derived cache
// materialized allocates the Attr and AttrT pages it merges, one pointer
// per page and a d-vector of column factors — at most 1 MiB. Cloning
// dense Rr and Rc and re-transposing R made it 48 MB.
func TestWithUpdatesAttrAllocationBound(t *testing.T) {
	g := benchShaped(30000, 100, 2)
	g.NormalizedAttrs()
	rng := rand.New(rand.NewSource(3))
	const updates = 20
	deltas := make([][]AttrEntry, updates)
	for i := range deltas {
		for k := 0; k < 8; k++ {
			deltas[i] = append(deltas[i], AttrEntry{Node: rng.Intn(g.N), Attr: rng.Intn(g.D), Weight: 1})
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, attrs := range deltas {
		next, err := g.WithUpdates(nil, attrs)
		if err != nil {
			t.Fatal(err)
		}
		g = next
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / updates; per > 1<<20 {
		t.Fatalf("WithUpdates allocates %d bytes per 8-entry attribute update, over the 1 MiB bound", per)
	} else {
		t.Logf("WithUpdates allocates %d bytes per 8-entry attribute update", per)
	}
}
