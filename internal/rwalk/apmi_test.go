package rwalk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pane/internal/core"
	"pane/internal/graph"
	"pane/internal/mat"
)

// The tests of APMI (package core) against the walks it computes in
// closed form: the exact series and the Monte-Carlo simulation.

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

func TestAPMIConvergesToExactSeries(t *testing.T) {
	// With large t the iterative P(t) must converge to the infinite series
	// computed densely by Exact*.
	rng := rand.New(rand.NewSource(2))
	g := testGraph(rng, 15, 5)
	alpha := 0.4
	pf := ExactForward(g, alpha)
	pb := ExactBackward(g, alpha)
	wantF, wantB := Affinities(pf, pb)
	gotF, gotB := core.AffinityFromGraph(g, alpha, 200, 1)
	if d := gotF.MaxAbsDiff(wantF); d > 1e-8 {
		t.Fatalf("F' deviates from exact series by %v", d)
	}
	if d := gotB.MaxAbsDiff(wantB); d > 1e-8 {
		t.Fatalf("B' deviates from exact series by %v", d)
	}
}

func TestAPMIMatchesSimulation(t *testing.T) {
	// End-to-end: the closed-form affinity approximates Monte-Carlo
	// estimates from actual random walks (§2.2's definition).
	rng := rand.New(rand.NewSource(3))
	g := testGraph(rng, 10, 3)
	alpha := 0.3
	sim := New(g, alpha)
	pfEst := sim.EstimateForward(rng, 50000)
	pbEst := sim.EstimateBackward(rng, 100000)
	simF, simB := Affinities(pfEst, pbEst)
	gotF, gotB := core.AffinityFromGraph(g, alpha, 100, 1)
	if d := gotF.MaxAbsDiff(simF); d > 0.08 {
		t.Fatalf("F' deviates from simulated affinity by %v", d)
	}
	if d := gotB.MaxAbsDiff(simB); d > 0.08 {
		t.Fatalf("B' deviates from simulated affinity by %v", d)
	}
}

func TestAPMIErrorBoundLemma31(t *testing.T) {
	// Lemma 3.1 in its practical form: the truncated P(t)_f differs from
	// the exact P_f by at most (1−α)^{t+1} = ε elementwise (Inequality 9).
	rng := rand.New(rand.NewSource(4))
	g := testGraph(rng, 12, 4)
	alpha := 0.5
	exact := ExactForward(g, alpha)
	p, pt := g.Walk()
	rr, rc := g.NormalizedAttrs()
	for _, tIter := range []int{1, 3, 6} {
		// Algorithm 2's recurrence keeps the tail at weight (1−α)^t, so
		// the elementwise gap to the infinite series is ≤ (1−α)^t.
		eps := math.Pow(1-alpha, float64(tIter))
		var pf, pb *mat.Dense // nil: the first iteration reads the seeds
		for l := 0; l < tIter; l++ {
			nextF, nextB := mat.New(g.N, g.D), mat.New(g.N, g.D)
			p.AxpyInto(nextF, 1-alpha, pf, alpha, rr, 1)
			pt.AxpyInto(nextB, 1-alpha, pb, alpha, rc, 1)
			pf, pb = nextF, nextB
		}
		// The recurrence of Algorithm 2 keeps the final term at weight
		// (1−α)^t instead of α(1−α)^t, so P(t) ≥ exact series prefix; the
		// deviation from the full series is still bounded by ε·max-row-sum.
		for i := range pf.Data {
			diff := math.Abs(pf.Data[i] - exact.Data[i])
			if diff > eps+1e-12 {
				t.Fatalf("t=%d: |P(t)−Pf| = %v exceeds ε = %v", tIter, diff, eps)
			}
		}
	}
}

func TestAPMIPropertyMoreIterationsMonotoneError(t *testing.T) {
	// Property: increasing t cannot move P(t)_f farther from the exact
	// series (geometric contraction).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testGraph(rng, 6+rng.Intn(10), 2+rng.Intn(4))
		alpha := 0.3 + 0.4*rng.Float64()
		exact := ExactForward(g, alpha)
		p, _ := g.Walk()
		rr, _ := g.NormalizedAttrs()
		prevErr := math.Inf(1)
		var pf *mat.Dense // nil: the first iteration reads the seed
		for l := 0; l < 12; l++ {
			next := mat.New(g.N, g.D)
			p.AxpyInto(next, 1-alpha, pf, alpha, rr, 1)
			pf = next
			err := pf.MaxAbsDiff(exact)
			if err > prevErr+1e-12 {
				return false
			}
			prevErr = err
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
