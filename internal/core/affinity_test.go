package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pane/internal/graph"
	"pane/internal/mat"
)

// freshGraphFrom rebuilds g2 from its entry lists so its derived-product
// cache is built from scratch rather than patched — the reference for
// "what a cold computation would produce".
func freshGraphFrom(g *graph.Graph) *graph.Graph {
	fresh, err := graph.New(g.N, g.D, g.Edges(), g.AttrEntries(), g.Labels)
	if err != nil {
		panic(err)
	}
	return fresh
}

// randomDelta draws a small random batch of edge inserts and attribute
// weight bumps for g.
func randomDelta(rng *rand.Rand, g *graph.Graph, nEdges, nAttrs int) ([]graph.Edge, []graph.AttrEntry) {
	var edges []graph.Edge
	for i := 0; i < nEdges; i++ {
		edges = append(edges, graph.Edge{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)})
	}
	var attrs []graph.AttrEntry
	for i := 0; i < nAttrs; i++ {
		attrs = append(attrs, graph.AttrEntry{Node: rng.Intn(g.N), Attr: rng.Intn(g.D), Weight: 0.5 + rng.Float64()})
	}
	return edges, attrs
}

// TestAffinityStateMatchesAPMI: a fresh state's levels and row sums are
// bit-identical to APMI's recurrence, and its materialized affinity — whose
// column sums come from the block tree rather than one pass down each
// column — equals APMI's output within PAPMI's tolerance, for t = 1 and
// deeper recurrences and regardless of worker count.
func TestAffinityStateMatchesAPMI(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ t, nb int }{{1, 1}, {1, 4}, {3, 1}, {3, 4}} {
		g := testGraph(rng, 40, 7)
		p, pt := g.Walk()
		rr, rc := g.NormalizedAttrs()
		s := NewAffinityState(g, 0.5, tc.t, tc.nb)
		var levF, levB *mat.Dense // nil: the first level reads the seeds
		for l := 0; l < tc.t; l++ {
			nf, nbm := mat.New(g.N, g.D), mat.New(g.N, g.D)
			p.AxpyInto(nf, 0.5, levF, 0.5, rr, 1)
			pt.AxpyInto(nbm, 0.5, levB, 0.5, rc, 1)
			levF, levB = nf, nbm
			if !slices.Equal(s.lf[l].Data, nf.Data) || !slices.Equal(s.lb[l].Data, nbm.Data) {
				t.Fatalf("t=%d nb=%d: level %d differs from APMI's recurrence", tc.t, tc.nb, l+1)
			}
		}
		if !slices.Equal(s.rowSums, levB.RowSums()) {
			t.Fatalf("t=%d nb=%d: row sums differ", tc.t, tc.nb)
		}
		wantF, wantB := APMI(p, pt, rr, rc, 0.5, tc.t)
		gotF, gotB := s.Affinity(tc.nb)
		for i, v := range wantF.Data {
			if d := math.Abs(gotF.Data[i] - v); d > 1e-12 {
				t.Fatalf("t=%d nb=%d: F differs at %d by %v", tc.t, tc.nb, i, d)
			}
		}
		if !slices.Equal(gotB.Data, wantB.Data) {
			t.Fatalf("t=%d nb=%d: B differs", tc.t, tc.nb)
		}
	}
}

// TestAffinityRowsMatchFull: gathered rows must equal the same rows of the
// full materialization bit-for-bit.
func TestAffinityRowsMatchFull(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := testGraph(rng, 30, 5)
	s := NewAffinityState(g, 0.5, 2, 2)
	f, b := s.Affinity(2)
	rows := []int{0, 3, 7, 29}
	fRows, bRows := s.AffinityRows(rows, 2)
	for j, v := range rows {
		for p := 0; p < s.d; p++ {
			if fRows.Row(j)[p] != f.Row(v)[p] || bRows.Row(j)[p] != b.Row(v)[p] {
				t.Fatalf("gathered affinity row %d differs from full materialization", v)
			}
		}
	}
}

// TestUpdateAffinityFrontierExact is the frontier property test: after an
// incremental update, (a) every row outside the reported frontier is
// bit-identical to the state before the update (the frontier covers the
// dense diff), and (b) the patched pre-normalization levels and row sums
// and the column-sum tree are bit-identical to a state rebuilt from
// scratch on the updated graph — i.e. the restricted recurrence loses
// nothing.
func TestUpdateAffinityFrontierExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		tIter := 1 + rng.Intn(3)
		g := testGraph(rng, 30+rng.Intn(30), 4+rng.Intn(5))
		s := NewAffinityState(g, 0.5, tIter, 2)
		before := NewAffinityState(g, 0.5, tIter, 1) // immutable copy of the pre-update state
		var edges []graph.Edge
		var attrs []graph.AttrEntry
		if trial%3 != 1 {
			edges, _ = randomDelta(rng, g, 1+rng.Intn(3), 0)
		}
		if trial%3 != 0 {
			_, attrs = randomDelta(rng, g, 0, 1+rng.Intn(3))
		}
		g2, eff, err := g.Apply(edges, attrs)
		if err != nil {
			t.Fatal(err)
		}
		up, err := UpdateAffinity(s, g2, eff, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !up.Incremental {
			t.Fatalf("trial %d: unexpected fallback with no frontier budget", trial)
		}
		full := NewAffinityState(freshGraphFrom(g2), 0.5, tIter, 2)
		inF := make([]bool, g.N)
		// The reported frontier sizes are checked indirectly: frontier
		// membership is exactly "the row may differ from before".
		for v := 0; v < g.N; v++ {
			inF[v] = !before.FinalRowsEqual(s, v)
		}
		frontierRows := 0
		for v := 0; v < g.N; v++ {
			// (b) the updated state matches the from-scratch rebuild on
			// every row, frontier or not.
			if !s.FinalRowsEqual(full, v) {
				t.Fatalf("trial %d: row %d of patched state differs from full rebuild", trial, v)
			}
			if s.rowSums[v] != full.rowSums[v] {
				t.Fatalf("trial %d: row sum %d differs from full rebuild", trial, v)
			}
			if inF[v] {
				frontierRows++
			}
		}
		if max := up.FrontierF + up.FrontierB; frontierRows > max {
			t.Fatalf("trial %d: %d rows changed but frontier reported only %d+%d",
				trial, frontierRows, up.FrontierF, up.FrontierB)
		}
		if !slices.Equal(s.colTree, full.colTree) {
			t.Fatalf("trial %d: column-sum tree differs from full rebuild", trial)
		}
	}
}

// TestUpdateAffinityThresholdFallback: a frontier above the budget leaves
// the state untouched and reports Incremental=false.
func TestUpdateAffinityThresholdFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := testGraph(rng, 40, 5)
	s := NewAffinityState(g, 0.5, 2, 1)
	before := NewAffinityState(g, 0.5, 2, 1)
	// Touch many sources so the frontier blows past 1% of n.
	var edges []graph.Edge
	for v := 0; v < g.N; v += 2 {
		edges = append(edges, graph.Edge{Src: v, Dst: (v + 3) % g.N})
	}
	g2, eff, err := g.Apply(edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	up, err := UpdateAffinity(s, g2, eff, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if up.Incremental {
		t.Fatal("expected threshold fallback")
	}
	for v := 0; v < g.N; v++ {
		if !s.FinalRowsEqual(before, v) {
			t.Fatal("fallback mutated the state")
		}
	}
}

// TestUpdateAffinityEmptyDelta: an empty delta is a no-op.
func TestUpdateAffinityEmptyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	g := testGraph(rng, 20, 4)
	s := NewAffinityState(g, 0.5, 1, 1)
	up, err := UpdateAffinity(s, g, graph.Effect{}, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Incremental || up.FrontierF != 0 || up.FrontierB != 0 {
		t.Fatalf("empty delta: %+v", up)
	}
}

// TestUpdateAffinityChainEqualsFresh is the property that makes the
// retained state a function of its graph: along a chain of random edge and
// attribute deltas, every patched state — levels, column-sum tree and row
// sums — is bit-identical to NewAffinityState on that step's graph, at any
// recurrence depth and worker count. 300 nodes make 19 leaves: a tree that
// is not a power of two, with a partial last block.
func TestUpdateAffinityChainEqualsFresh(t *testing.T) {
	for _, depth := range []int{1, 3} {
		for _, nb := range []int{1, 2, 4} {
			rng := rand.New(rand.NewSource(int64(26 + 10*depth + nb)))
			g := testGraph(rng, 300, 6)
			s := NewAffinityState(g, 0.5, depth, nb)
			const chain = 100
			for step := 0; step < chain; step++ {
				edges, attrs := randomDelta(rng, g, 1+rng.Intn(3), rng.Intn(2))
				g2, eff, err := g.Apply(edges, attrs)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := UpdateAffinity(s, g2, eff, 0, nb); err != nil {
					t.Fatal(err)
				}
				g = g2
				want := NewAffinityState(freshGraphFrom(g), 0.5, depth, 1)
				label := fmt.Sprintf("t=%d nb=%d step %d", depth, nb, step)
				for l := range want.lf {
					if !slices.Equal(s.lf[l].Data, want.lf[l].Data) || !slices.Equal(s.lb[l].Data, want.lb[l].Data) {
						t.Fatalf("%s: level %d differs from a fresh state", label, l+1)
					}
				}
				if !slices.Equal(s.colTree, want.colTree) {
					t.Fatalf("%s: column-sum tree differs from a fresh state", label)
				}
				if !slices.Equal(s.rowSums, want.rowSums) {
					t.Fatalf("%s: row sums differ from a fresh state", label)
				}
			}
		}
	}
}

// TestAffinityUpdateMismatchedGraph: shape mismatches are rejected.
func TestAffinityUpdateMismatchedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	g := testGraph(rng, 20, 4)
	other := testGraph(rng, 21, 4)
	s := NewAffinityState(g, 0.5, 1, 1)
	if _, err := UpdateAffinity(s, other, graph.Effect{}, 0, 1); err == nil {
		t.Fatal("mismatched graph accepted")
	}
}

// FinalRowsEqual reports whether row i of the pre-normalization state
// matches other's bit-for-bit — the frontier property tests use it to
// verify rows outside the frontier are untouched.
func (s *AffinityState) FinalRowsEqual(other *AffinityState, i int) bool {
	a, b := s.finalF().Row(i), other.finalF().Row(i)
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	a, b = s.finalB().Row(i), other.finalB().Row(i)
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}
