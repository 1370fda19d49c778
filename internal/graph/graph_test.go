package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, n, d int, edges []Edge, attrs []AttrEntry, labels [][]int) *Graph {
	t.Helper()
	g, err := New(n, d, edges, attrs, labels)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewBasic(t *testing.T) {
	g := mustNew(t, 3, 2,
		[]Edge{{0, 1}, {1, 2}, {0, 1}}, // duplicate collapses
		[]AttrEntry{{0, 0, 1}, {0, 0, 2}, {2, 1, 0.5}}, nil)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (duplicate edge must collapse)", g.M())
	}
	if g.Attr.At(0, 0) != 3 {
		t.Fatalf("attr duplicate should sum: %v", g.Attr.At(0, 0))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("directedness violated")
	}
	if g.OutDegree(0) != 1 || g.OutDegree(2) != 0 {
		t.Fatal("wrong out-degrees")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, nil, nil, nil); err == nil {
		t.Fatal("want error for zero nodes")
	}
	if _, err := New(2, 1, []Edge{{0, 5}}, nil, nil); err == nil {
		t.Fatal("want error for out-of-range edge")
	}
	if _, err := New(2, 1, nil, []AttrEntry{{0, 3, 1}}, nil); err == nil {
		t.Fatal("want error for out-of-range attribute")
	}
	if _, err := New(2, 1, nil, []AttrEntry{{0, 0, -1}}, nil); err == nil {
		t.Fatal("want error for negative weight")
	}
	if _, err := New(2, 1, nil, nil, [][]int{{0}}); err == nil {
		t.Fatal("want error for label length mismatch")
	}
}

func TestWalkRowStochastic(t *testing.T) {
	g := mustNew(t, 4, 0, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}}, nil, nil)
	p, pt := g.Walk()
	for i := 0; i < 3; i++ {
		if s := p.RowSum(i); math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d of P sums to %v", i, s)
		}
	}
	if p.RowSum(3) != 0 {
		t.Fatal("dangling node 3 should have a zero row")
	}
	// Pᵀ really is the transpose.
	if !pt.ToDense().Equal(p.ToDense().T(), 0) {
		t.Fatal("Pᵀ mismatch")
	}
	if math.Abs(p.At(0, 1)-0.5) > 1e-12 {
		t.Fatalf("P[0,1] = %v, want 0.5", p.At(0, 1))
	}
}

func TestNormalizedAttrs(t *testing.T) {
	g := mustNew(t, 3, 2, nil, []AttrEntry{{0, 0, 1}, {0, 1, 3}, {1, 0, 2}}, nil)
	rr, rc := g.NormalizedAttrs()
	// Rr rows sum to 1 for nodes with attributes.
	if math.Abs(rr.At(0, 0)-0.25) > 1e-12 || math.Abs(rr.At(0, 1)-0.75) > 1e-12 {
		t.Fatalf("Rr row 0 = %v %v", rr.At(0, 0), rr.At(0, 1))
	}
	if rr.At(2, 0) != 0 || rr.At(2, 1) != 0 {
		t.Fatal("attribute-less node must have zero Rr row")
	}
	// Rc columns sum to 1.
	if math.Abs(rc.At(0, 0)-1.0/3) > 1e-12 || math.Abs(rc.At(1, 0)-2.0/3) > 1e-12 {
		t.Fatalf("Rc col 0 = %v %v", rc.At(0, 0), rc.At(1, 0))
	}
	if math.Abs(rc.At(0, 1)-1) > 1e-12 {
		t.Fatalf("Rc col 1 = %v", rc.At(0, 1))
	}
}

func TestPickProbConsistency(t *testing.T) {
	g := RunningExample()
	rr, rc := g.NormalizedAttrs()
	if fp := g.ForwardPickProbs(); fp.MaxAbsDiff(rr) > 0 {
		t.Fatal("ForwardPickProbs != row-normalized attrs")
	}
	if bp := g.BackwardStartProbs(); bp.MaxAbsDiff(rc) > 0 {
		t.Fatal("BackwardStartProbs != column-normalized attrs")
	}
}

func TestRunningExampleConstraints(t *testing.T) {
	g := RunningExample()
	if g.N != 6 || g.D != 3 {
		t.Fatalf("shape %d nodes %d attrs", g.N, g.D)
	}
	// v1 (index 0) and v2 (index 1) carry no attributes.
	for _, v := range []int{0, 1} {
		if cols, _ := g.NodeAttrs(v); len(cols) != 0 {
			t.Fatalf("node %d should have no attributes", v)
		}
	}
	// v5 (index 4) owns r1 (0) but not r3 (2).
	if g.Attr.At(4, 0) == 0 || g.Attr.At(4, 2) != 0 {
		t.Fatal("v5 attribute constraint violated")
	}
	// All attribute weights are 1.
	for _, a := range g.AttrEntries() {
		if a.Weight != 1 {
			t.Fatalf("attribute weight %v != 1", a.Weight)
		}
	}
	// Every node must be able to continue a walk (no dead ends for v1-v5).
	for v := 0; v < g.N; v++ {
		if g.OutDegree(v) == 0 {
			t.Fatalf("node %d is dangling in the running example", v)
		}
	}
}

func TestStats(t *testing.T) {
	g := mustNew(t, 3, 2, []Edge{{0, 1}}, []AttrEntry{{0, 0, 1}},
		[][]int{{0, 1}, {1}, {}})
	s := g.Stats()
	if s.Nodes != 3 || s.Edges != 1 || s.Attrs != 2 || s.AttrEntries != 1 || s.LabelKinds != 2 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestIORoundTrip(t *testing.T) {
	g := RunningExample()
	var eb, ab bytes.Buffer
	if err := g.WriteEdges(&eb); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteAttrs(&ab); err != nil {
		t.Fatal(err)
	}
	edges, n, err := ReadEdges(&eb)
	if err != nil {
		t.Fatal(err)
	}
	attrs, d, err := ReadAttrs(&ab)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(n, d, edges, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Adj.ToDense().Equal(g.Adj.ToDense(), 0) {
		t.Fatal("edge round trip changed adjacency")
	}
	if !g2.Attr.ToDense().Equal(g.Attr.ToDense(), 0) {
		t.Fatal("attr round trip changed attributes")
	}
}

func TestReadEdgesCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n0 1\n  2 0  \n"
	edges, n, err := ReadEdges(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 || n != 3 {
		t.Fatalf("edges=%v n=%d", edges, n)
	}
}

func TestReadAttrsDefaultWeight(t *testing.T) {
	attrs, d, err := ReadAttrs(strings.NewReader("0 1\n1 0 2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 || attrs[0].Weight != 1 || attrs[1].Weight != 2.5 {
		t.Fatalf("attrs=%v d=%d", attrs, d)
	}
}

func TestReadEdgesMalformed(t *testing.T) {
	if _, _, err := ReadEdges(strings.NewReader("0 1 2 3\n")); err == nil {
		t.Fatal("want error for too many fields")
	}
	if _, _, err := ReadEdges(strings.NewReader("abc def\n")); err == nil {
		t.Fatal("want error for non-numeric fields")
	}
}

func TestReadLabelsMultiLabel(t *testing.T) {
	ls, err := ReadLabels(strings.NewReader("0 1\n0 2\n2 0\n"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls[0]) != 2 || len(ls[1]) != 0 || ls[2][0] != 0 {
		t.Fatalf("labels = %v", ls)
	}
	if _, err := ReadLabels(strings.NewReader("9 0\n"), 3); err == nil {
		t.Fatal("want error for out-of-range node")
	}
}

func TestPropertyWalkMassConservation(t *testing.T) {
	// For random graphs, every non-dangling row of P sums to 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		var edges []Edge
		for i := 0; i < n*2; i++ {
			edges = append(edges, Edge{rng.Intn(n), rng.Intn(n)})
		}
		g, err := New(n, 0, edges, nil, nil)
		if err != nil {
			return false
		}
		p, _ := g.Walk()
		for i := 0; i < n; i++ {
			s := p.RowSum(i)
			if g.OutDegree(i) > 0 && math.Abs(s-1) > 1e-9 {
				return false
			}
			if g.OutDegree(i) == 0 && s != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
