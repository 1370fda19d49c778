package core

import (
	"math/rand"
	"testing"

	"pane/internal/graph"
	"pane/internal/mat"
)

// deltaFixture trains a model, perturbs the graph, and returns the pieces
// a delta-refinement test needs: the previous embedding, the affinity state
// of the perturbed graph g2 and the targets it materializes.
func deltaFixture(t *testing.T, seed int64) (prev *Embedding, s *AffinityState, f2, b2 *mat.Dense, g2 *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := testGraph(rng, 40, 9)
	cfg := smallConfig()
	prev, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2 = perturb(g, 12, 8, seed+1)
	s = NewAffinityState(g2, cfg.Alpha, cfg.Iterations(), 2)
	f2, b2 = s.Affinity(1)
	return prev, s, f2, b2, g2
}

// TestRefineTouchesExactlyDelta is the delta-report contract: every row
// outside the delta is bit-identical to the previous embedding, and (on
// this fixture) every listed row actually moved.
func TestRefineTouchesExactlyDelta(t *testing.T) {
	prev, s, _, _, _ := deltaFixture(t, 20)
	delta := UpdateDelta{Nodes: []int{1, 5, 17, 33}, Attrs: []int{2, 6}}
	next := Refine(s, prev, 2, 1, delta)

	inNodes := map[int]bool{}
	for _, v := range delta.Nodes {
		inNodes[v] = true
	}
	for v := 0; v < prev.Xf.Rows; v++ {
		same := rowsEqual(prev.Xf.Row(v), next.Xf.Row(v)) && rowsEqual(prev.Xb.Row(v), next.Xb.Row(v))
		if inNodes[v] && same {
			t.Fatalf("listed node row %d did not move", v)
		}
		if !inNodes[v] && !same {
			t.Fatalf("unlisted node row %d changed", v)
		}
	}
	inAttrs := map[int]bool{}
	for _, r := range delta.Attrs {
		inAttrs[r] = true
	}
	for r := 0; r < prev.Y.Rows; r++ {
		same := rowsEqual(prev.Y.Row(r), next.Y.Row(r))
		if inAttrs[r] && same {
			t.Fatalf("listed attribute row %d did not move", r)
		}
		if !inAttrs[r] && !same {
			t.Fatalf("unlisted attribute row %d changed", r)
		}
	}
}

// TestRefineNodeOnlySharesY: a node-only delta must leave Y not just equal
// but the SAME matrix, and untouched Z rows of the link candidate
// transform bit-identical — the property the incremental index refresh is
// built on.
func TestRefineNodeOnlySharesY(t *testing.T) {
	prev, s, _, _, _ := deltaFixture(t, 30)
	delta := UpdateDelta{Nodes: []int{0, 7, 21}}
	next := Refine(s, prev, 2, 1, delta)
	if next.Y != prev.Y {
		t.Fatal("node-only delta did not share Y")
	}
	zPrev := NewLinkScorer(prev).TransformedCandidates(1)
	zNext := NewLinkScorer(next).TransformedCandidates(1)
	in := map[int]bool{0: true, 7: true, 21: true}
	for v := 0; v < zPrev.Rows; v++ {
		if !in[v] && !rowsEqual(zPrev.Row(v), zNext.Row(v)) {
			t.Fatalf("Z row %d changed without its Xb row changing", v)
		}
	}
}

// TestRefineGatheredMatchesGeneral: the node-only gathered fast path must
// produce bit-for-bit the rows the general (full-state) path produces for
// the same node delta — the two are one algorithm with two residual
// layouts.
func TestRefineGatheredMatchesGeneral(t *testing.T) {
	prev, s, f2, b2, _ := deltaFixture(t, 40)
	nodes := []int{2, 3, 11, 29, 38}
	fast := Refine(s, prev, 2, 1, UpdateDelta{Nodes: nodes})

	// Drive the general path by hand: full residual state, node rows only.
	st := warmState(prev, f2, b2, 1)
	refineRows(st, 2, 1, nodes, nil)

	if fast.Xf.Dense().MaxAbsDiff(st.Xf) != 0 || fast.Xb.Dense().MaxAbsDiff(st.Xb) != 0 {
		t.Fatal("gathered node-only path diverges from the full-state restricted sweep")
	}
}

// TestRefineSharesUntouchedPages: a node-only refinement returns Y by
// pointer and copies only the Xf/Xb pages holding a delta row; every other
// page is the previous embedding's memory, and prev itself is bit for bit
// what it was.
func TestRefineSharesUntouchedPages(t *testing.T) {
	prev, s, _, _, _ := deltaFixture(t, 70)
	before := [2]*mat.Dense{prev.Xf.Dense(), prev.Xb.Dense()}
	nodes := []int{2, 3, 2*mat.PageRows + 1} // the first and the last of the fixture's three pages
	next := Refine(s, prev, 2, 2, UpdateDelta{Nodes: nodes})
	if next.Y != prev.Y {
		t.Fatal("node-only refinement did not return Y by pointer")
	}
	dirty := map[int]bool{}
	for _, v := range nodes {
		dirty[v/mat.PageRows] = true
	}
	for k := range prev.Xf.Pages() {
		if next.Xf.SamePage(prev.Xf, k) == dirty[k] || next.Xb.SamePage(prev.Xb, k) == dirty[k] {
			t.Fatalf("page %d: shared with prev must be %v", k, !dirty[k])
		}
	}
	if prev.Xf.Dense().MaxAbsDiff(before[0]) != 0 || prev.Xb.Dense().MaxAbsDiff(before[1]) != 0 {
		t.Fatal("refinement wrote through a page it shares with prev")
	}
}

// TestRefineParallelMatchesSerial: restricted sweeps touch disjoint rows,
// so the worker count must not change the result.
func TestRefineParallelMatchesSerial(t *testing.T) {
	prev, s, _, _, _ := deltaFixture(t, 60)
	delta := UpdateDelta{Nodes: []int{1, 4, 9, 16, 25, 36}, Attrs: []int{0, 3, 8}}
	serial := Refine(s, prev, 2, 1, delta)
	par := Refine(s, prev, 2, 4, delta)
	if serial.Xf.Dense().MaxAbsDiff(par.Xf.Dense()) != 0 || serial.Xb.Dense().MaxAbsDiff(par.Xb.Dense()) != 0 || serial.Y.MaxAbsDiff(par.Y) != 0 {
		t.Fatal("parallel restricted refinement deviates from serial")
	}
}

// TestRefineLowersObjective: refining only the touched rows must still
// improve the fit to the new targets.
func TestRefineLowersObjective(t *testing.T) {
	prev, s, f2, b2, g2 := deltaFixture(t, 70)
	delta := UpdateDelta{Nodes: upTo(g2.N)[:10], Attrs: []int{1, 2}}
	before := Objective(prev, f2, b2)
	next := Refine(s, prev, 2, 1, delta)
	if after := Objective(next, f2, b2); after >= before {
		t.Fatalf("restricted refinement did not lower the objective: %v -> %v", before, after)
	}
}

// mustPanic runs f and reports an error naming what if f returns normally.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: accepted", what)
		}
	}()
	f()
}

// TestRefineRejectsMalformedDelta: Refine fails loudly on duplicate or
// out-of-range delta rows rather than race two goroutines over one row,
// and accepts a well-formed delta.
func TestRefineRejectsMalformedDelta(t *testing.T) {
	prev, s, _, _, g2 := deltaFixture(t, 80)
	for name, delta := range map[string]UpdateDelta{
		"duplicate nodes":   {Nodes: []int{3, 3}},
		"out-of-range node": {Nodes: []int{g2.N}},
		"descending attrs":  {Attrs: []int{5, 1}},
		"out-of-range attr": {Attrs: []int{g2.D}},
	} {
		mustPanic(t, name, func() { Refine(s, prev, 1, 2, delta) })
	}
	Refine(s, prev, 1, 2, UpdateDelta{Nodes: []int{0, 1}})
}

// TestRefineRejectsMalformedMixedDelta: a delta with both node and
// attribute rows takes the attribute path, and a malformed list on either
// side of it is refused just the same, bounded by prev's shape.
func TestRefineRejectsMalformedMixedDelta(t *testing.T) {
	prev, s, _, _, _ := deltaFixture(t, 100)
	for name, delta := range map[string]UpdateDelta{
		"duplicate nodes":   {Nodes: []int{5, 5}, Attrs: []int{0, 2}},
		"out-of-range node": {Nodes: []int{prev.Xf.Rows}, Attrs: []int{0, 2}},
		"descending attrs":  {Nodes: []int{0, 1}, Attrs: []int{4, 1}},
		"out-of-range attr": {Nodes: []int{0, 1}, Attrs: []int{prev.Y.Rows}},
	} {
		mustPanic(t, name, func() { Refine(s, prev, 1, 2, delta) })
	}
	Refine(s, prev, 1, 2, UpdateDelta{Nodes: []int{0, 1}, Attrs: []int{0, 2}})
}

// TestRefineRejectsZeroSweeps: Refine needs at least one sweep.
func TestRefineRejectsZeroSweeps(t *testing.T) {
	prev, s, _, _, _ := deltaFixture(t, 80)
	mustPanic(t, "zero sweeps", func() { Refine(s, prev, 0, 2, UpdateDelta{Nodes: []int{0, 1}}) })
}

// TestTransformedCandidatesRowsMatchesFull: the row-restricted transform
// must be bit-identical to the corresponding rows of the full product at
// any worker count.
func TestTransformedCandidatesRowsMatchesFull(t *testing.T) {
	prev, _, _, _, _ := deltaFixture(t, 90)
	s := NewLinkScorer(prev)
	full := s.TransformedCandidates(1)
	rows := []int{0, 5, 13, 39}
	for _, nb := range []int{1, 3} {
		part := s.TransformedCandidatesRows(rows, nb)
		for j, v := range rows {
			if !rowsEqual(part.Row(j), full.Row(v)) {
				t.Fatalf("nb=%d: recomputed Z row %d differs from full product", nb, v)
			}
		}
	}
}

func rowsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
