package graph

import (
	"reflect"
	"testing"
)

func TestEdgesAndAttrEntriesRoundTrip(t *testing.T) {
	g := RunningExample()
	g2, err := New(g.N, g.D, g.Edges(), g.AttrEntries(), g.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() || g2.NNZAttr() != g.NNZAttr() {
		t.Fatalf("round trip changed graph: m %d->%d, |ER| %d->%d",
			g.M(), g2.M(), g.NNZAttr(), g2.NNZAttr())
	}
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if g.HasEdge(u, v) != g2.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) differs", u, v)
			}
		}
	}
}

// TestWithUpdates: a write of one new edge (sent twice), one held edge, a
// weight bump and a zero weight merges the new edge and the bump, leaves
// the receiver as it was, and reports as its effect exactly the rows the
// new edge and the bump move.
func TestWithUpdates(t *testing.T) {
	g := RunningExample()
	if g.HasEdge(1, 3) {
		t.Fatal("test premise: edge (1,3) should not exist")
	}
	w0 := g.Attr.At(1, 0)
	g2, eff, err := g.Apply(
		[]Edge{{Src: 1, Dst: 3}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}},
		[]AttrEntry{{Node: 1, Attr: 0, Weight: 2}, {Node: 3, Attr: 2, Weight: 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasEdge(1, 3) || g2.M() != g.M()+1 {
		t.Fatalf("m %d -> %d, want the one new edge (1,3) added", g.M(), g2.M())
	}
	if got := g2.Attr.At(1, 0); got != w0+2 {
		t.Fatalf("attribute weight %v, want %v (additive)", got, w0+2)
	}
	if g2.NNZAttr() != g.NNZAttr()+1 {
		t.Fatalf("|ER| %d -> %d, want the zero weight dropped", g.NNZAttr(), g2.NNZAttr())
	}
	// Original untouched (immutability contract).
	if g.HasEdge(1, 3) || g.Attr.At(1, 0) != w0 {
		t.Fatal("WithUpdates mutated the receiver")
	}
	want := Effect{PRows: []int{1}, PTRows: []int{2, 3}, RrRows: []int{1}, Attrs: []int{0}, RcRows: []int{1, 2, 3, 4}, Nodes: []int{1, 3}}
	if !reflect.DeepEqual(eff, want) {
		t.Fatalf("effect %+v, want %+v", eff, want)
	}
	// Out-of-range entries are rejected.
	if _, err := g.WithUpdates([]Edge{{Src: 0, Dst: g.N}}, nil); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := g.WithUpdates(nil, []AttrEntry{{Node: 0, Attr: g.D, Weight: 1}}); err == nil {
		t.Fatal("out-of-range attribute accepted")
	}
}

func TestFromCSRMatchesNew(t *testing.T) {
	g := RunningExample()
	g2, err := FromCSR(g.Adj, g.Attr, g.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.D != g.D || g2.M() != g.M() {
		t.Fatalf("shape changed: %d/%d/%d vs %d/%d/%d", g2.N, g2.D, g2.M(), g.N, g.D, g.M())
	}
	for v := 0; v < g.N; v++ {
		if g2.OutDegree(v) != g.OutDegree(v) {
			t.Fatalf("out-degree of %d differs", v)
		}
	}
	// AdjT was rebuilt, not shared.
	if g2.AdjT.NNZ() != g.AdjT.NNZ() {
		t.Fatal("transpose nnz differs")
	}
	// Dimension validation.
	if _, err := FromCSR(g.Attr, g.Attr, nil); err == nil {
		t.Fatal("non-square adjacency accepted")
	}
	if _, err := FromCSR(g.Adj, g.Attr, [][]int{{0}}); err == nil {
		t.Fatal("short labels accepted")
	}
}
