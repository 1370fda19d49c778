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

// TestDerivedFootprintBound is the memory gate of the derived cache: on a
// bench-shaped graph (n = 30,000, d = 100) materializing P, Pᵀ and Rc's
// column factors grows the live heap by at most 8 MB — P's values, Pᵀ and
// a d-vector, never an n x d matrix. Dense Rr and Rc made it 52 MB.
func TestDerivedFootprintBound(t *testing.T) {
	g := benchShaped(30000, 100, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g.Walk()
	g.NormalizedAttrs()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grown > 8e6 {
		t.Fatalf("the derived cache grows the heap by %d bytes, over the 8 MB bound", grown)
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
	g.Walk()
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
