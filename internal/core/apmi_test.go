package core

import (
	"math"
	"math/rand"
	"testing"

	"pane/internal/graph"
)

// testGraph builds a random attributed digraph where every node has an
// out-edge and at least one attribute.
func testGraph(rng *rand.Rand, n, d int) *graph.Graph {
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: (v + 1) % n})
		for e := 0; e < 1+rng.Intn(3); e++ {
			edges = append(edges, graph.Edge{Src: v, Dst: rng.Intn(n)})
		}
	}
	var attrs []graph.AttrEntry
	for v := 0; v < n; v++ {
		attrs = append(attrs, graph.AttrEntry{Node: v, Attr: rng.Intn(d), Weight: 1 + rng.Float64()})
		if rng.Float64() < 0.6 {
			attrs = append(attrs, graph.AttrEntry{Node: v, Attr: rng.Intn(d), Weight: rng.Float64() + 0.2})
		}
	}
	g, err := graph.New(n, d, edges, attrs, nil)
	if err != nil {
		panic(err)
	}
	return g
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{K: 3, Alpha: 0.5, Eps: 0.015},
		{K: 0, Alpha: 0.5, Eps: 0.015},
		{K: 128, Alpha: 0, Eps: 0.015},
		{K: 128, Alpha: 1.2, Eps: 0.015},
		{K: 128, Alpha: 0.5, Eps: 0},
		{K: 128, Alpha: 0.5, Eps: 2},
		{K: 128, Alpha: 0.5, Eps: 0.1, Threads: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
}

func TestIterationsMatchesPaperTable(t *testing.T) {
	// §5.6: with α = 0.5, ε from 0.001 to 0.25 corresponds to t from 9 to 1.
	cases := []struct {
		eps  float64
		want int
	}{
		{0.25, 1}, {0.05, 4}, {0.015, 6}, {0.005, 7}, {0.001, 9},
	}
	for _, c := range cases {
		cfg := Config{K: 16, Alpha: 0.5, Eps: c.eps}
		if got := cfg.Iterations(); got != c.want {
			t.Errorf("eps=%v: t=%d, want %d", c.eps, got, c.want)
		}
	}
}

func TestAPMINonnegativeAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := testGraph(rng, 20, 6)
	f, b := AffinityFromGraph(g, 0.5, 5, 1)
	if f.Rows != g.N || f.Cols != g.D || b.Rows != g.N || b.Cols != g.D {
		t.Fatal("affinity shape mismatch")
	}
	for i, v := range f.Data {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("F'[%d] = %v", i, v)
		}
	}
	for i, v := range b.Data {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("B'[%d] = %v", i, v)
		}
	}
}

func TestPAPMIMatchesAPMI(t *testing.T) {
	// Lemma 4.1: PAPMI returns exactly APMI's output for any nb.
	rng := rand.New(rand.NewSource(5))
	g := testGraph(rng, 25, 7)
	p, pt := g.Walk()
	rr, rc := g.NormalizedAttrs()
	wantF, wantB := APMI(p, pt, rr, rc, 0.5, 6)
	for _, nb := range []int{2, 3, 5, 7, 16} {
		gotF, gotB := PAPMI(p, pt, rr, rc, 0.5, 6, nb)
		if d := gotF.MaxAbsDiff(wantF); d > 1e-12 {
			t.Fatalf("nb=%d: PAPMI F' deviates by %v", nb, d)
		}
		if d := gotB.MaxAbsDiff(wantB); d > 1e-12 {
			t.Fatalf("nb=%d: PAPMI B' deviates by %v", nb, d)
		}
	}
}

func TestRunningExampleAffinityTable(t *testing.T) {
	// The Table 2 reproduction: APMI's affinities on the running example
	// must reproduce the qualitative structure discussed in §2.3 (see
	// rwalk's ordering test for the simulated counterpart).
	g := graph.RunningExample()
	f, b := AffinityFromGraph(g, graph.RunningExampleAlpha, 400, 1)
	v1, v5, v6 := 0, 4, 5
	r1, r3 := 0, 2
	if !(f.At(v1, r1) > f.At(v1, r3) && b.At(v1, r1) > b.At(v1, r3)) {
		t.Fatalf("v1 should prefer r1: F=%v B=%v", f.Row(v1), b.Row(v1))
	}
	if !(f.At(v5, r3) > f.At(v5, r1)) {
		t.Fatalf("v5 forward anomaly missing: F[v5]=%v", f.Row(v5))
	}
	if !(f.At(v5, r1)+b.At(v5, r1) > f.At(v5, r3)+b.At(v5, r3)) {
		t.Fatal("combined affinity fails to fix v5's inference")
	}
	// v6 carries r3 and should have its strongest affinity there.
	if !(f.At(v6, r3) > f.At(v6, r1)) || !(b.At(v6, r3) > b.At(v6, r1)) {
		t.Fatalf("v6 should prefer r3: F=%v B=%v", f.Row(v6), b.Row(v6))
	}
}

// DefaultConfig returns the paper's default parameter setting (§5.1).
func DefaultConfig() Config {
	return Config{K: 128, Alpha: 0.5, Eps: 0.015, Threads: 10, Seed: 1}
}
