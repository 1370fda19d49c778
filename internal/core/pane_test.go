package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pane/internal/graph"
	"pane/internal/mat"
)

func smallConfig() Config {
	return Config{K: 16, Alpha: 0.5, Eps: 0.015, Threads: 4, Seed: 1}
}

func TestPANEEndToEndShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := testGraph(rng, 40, 10)
	e, err := PANE(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.Xf.Rows != g.N || e.Xb.Rows != g.N || e.Y.Rows != g.D {
		t.Fatal("embedding row counts wrong")
	}
	if e.Xf.Cols != 8 || e.Xb.Cols != 8 || e.Y.Cols != 8 || e.K() != 16 {
		t.Fatal("embedding widths wrong")
	}
	for _, m := range []*mat.Dense{e.Xf.Dense(), e.Xb.Dense(), e.Y} {
		for i, v := range m.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite embedding value at %d", i)
			}
		}
	}
}

func TestPANERejectsBadConfig(t *testing.T) {
	g := graph.RunningExample()
	if _, err := PANE(g, Config{K: 7, Alpha: 0.5, Eps: 0.015}); err == nil {
		t.Fatal("odd K accepted")
	}
	if _, err := ParallelPANE(g, Config{K: 8, Alpha: 2, Eps: 0.015}); err == nil {
		t.Fatal("bad alpha accepted")
	}
}

func TestPANEApproximatesAffinity(t *testing.T) {
	// The whole point of Equation (4): Xf·Yᵀ ≈ F' and Xb·Yᵀ ≈ B'.
	rng := rand.New(rand.NewSource(2))
	g := testGraph(rng, 50, 8)
	cfg := smallConfig()
	f, b := AffinityFromGraph(g, cfg.Alpha, cfg.Iterations(), 1)
	e, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	relF := relErr(mat.MulBT(e.Xf.Dense(), e.Y), f)
	relB := relErr(mat.MulBT(e.Xb.Dense(), e.Y), b)
	if relF > 0.35 || relB > 0.35 {
		t.Fatalf("reconstruction error too high: F %v, B %v", relF, relB)
	}
}

func relErr(got, want *mat.Dense) float64 {
	d := got.Clone()
	d.Sub(want)
	return d.FrobeniusNorm() / want.FrobeniusNorm()
}

func TestParallelPANECloseToSerial(t *testing.T) {
	// §5's repeated observation: parallel PANE's utility is within a hair
	// of single-thread PANE. We check the objective value ratio.
	rng := rand.New(rand.NewSource(3))
	g := testGraph(rng, 60, 12)
	cfg := smallConfig()
	f, b := AffinityFromGraph(g, cfg.Alpha, cfg.Iterations(), 1)
	serial, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParallelPANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	os := Objective(serial, f, b)
	op := Objective(par, f, b)
	if op > 1.5*os+1e-9 {
		t.Fatalf("parallel objective %v much worse than serial %v", op, os)
	}
}

func TestParallelPANESingleThreadDegenerate(t *testing.T) {
	// Threads=1 parallel PANE must agree with single-thread PANE exactly:
	// same affinity path, same initializer fallback, same CCD.
	rng := rand.New(rand.NewSource(4))
	g := testGraph(rng, 30, 6)
	cfg := smallConfig()
	cfg.Threads = 1
	a, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParallelPANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Xf.Dense().MaxAbsDiff(b.Xf.Dense()) > 1e-12 || a.Y.MaxAbsDiff(b.Y) > 1e-12 {
		t.Fatal("Threads=1 parallel PANE differs from serial PANE")
	}
}

func TestPANEDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testGraph(rng, 25, 5)
	cfg := smallConfig()
	a, _ := PANE(g, cfg)
	b, _ := PANE(g, cfg)
	if a.Xf.Dense().MaxAbsDiff(b.Xf.Dense()) > 0 || a.Xb.Dense().MaxAbsDiff(b.Xb.Dense()) > 0 || a.Y.MaxAbsDiff(b.Y) > 0 {
		t.Fatal("same seed produced different embeddings")
	}
	cfg.Seed = 999
	c, _ := PANE(g, cfg)
	if a.Xf.Dense().MaxAbsDiff(c.Xf.Dense()) == 0 {
		t.Fatal("different seed produced identical embeddings (suspicious)")
	}
}

func TestAttrScoreRecoversHeldOutAttributes(t *testing.T) {
	// Functional smoke test of Equation (21): nodes should score their own
	// attributes above the median of attributes they do not carry.
	rng := rand.New(rand.NewSource(6))
	g := testGraph(rng, 60, 10)
	cfg := smallConfig()
	e, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	better, total := 0, 0
	for v := 0; v < g.N; v++ {
		cols, _ := g.NodeAttrs(v)
		if len(cols) == 0 {
			continue
		}
		owned := map[int32]bool{}
		for _, c := range cols {
			owned[c] = true
		}
		var negScores []float64
		for r := 0; r < g.D; r++ {
			if !owned[int32(r)] {
				negScores = append(negScores, e.AttrScore(v, r))
			}
		}
		sort.Float64s(negScores)
		median := negScores[len(negScores)/2]
		for _, c := range cols {
			total++
			if e.AttrScore(v, int(c)) > median {
				better++
			}
		}
	}
	if frac := float64(better) / float64(total); frac < 0.8 {
		t.Fatalf("only %.2f of owned attributes beat the median non-owned score", frac)
	}
}

func TestLinkScorerMatchesEquation22(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testGraph(rng, 20, 6)
	e, err := PANE(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewLinkScorer(e)
	// Direct evaluation of Σ_r (Xf[u]·Y[r])(Xb[v]·Y[r]).
	for _, pair := range [][2]int{{0, 1}, {3, 9}, {12, 4}} {
		u, v := pair[0], pair[1]
		var want float64
		for r := 0; r < g.D; r++ {
			want += mat.Dot(e.Xf.Row(u), e.Y.Row(r)) * mat.Dot(e.Xb.Row(v), e.Y.Row(r))
		}
		if got := s.Directed(u, v); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("Directed(%d,%d) = %v, want %v", u, v, got, want)
		}
		if got := s.Undirected(u, v); math.Abs(got-(s.Directed(u, v)+s.Directed(v, u))) > 1e-12 {
			t.Fatal("Undirected != sum of directions")
		}
	}
}

// TestLinkScorerForReusesGram: an update that returns Y by pointer keeps
// the previous scorer's G (no recompute, same matrix); one that moved Y
// gets the G a fresh scorer would build.
func TestLinkScorerForReusesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e, err := PANE(testGraph(rng, 20, 6), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewLinkScorer(e)
	sameY := &Embedding{Xf: e.Xb, Xb: e.Xf, Y: e.Y}
	if got := s.For(sameY); got.g != s.g || got.e != sameY {
		t.Fatal("For recomputed G although Y did not move")
	}
	movedY := &Embedding{Xf: e.Xf, Xb: e.Xb, Y: e.Y.Clone()}
	movedY.Y.Row(0)[0] += 1
	if got, want := s.For(movedY), NewLinkScorer(movedY); got.g == s.g || got.g.MaxAbsDiff(want.g) != 0 {
		t.Fatal("For kept a stale G after Y moved")
	}
}

func TestLinkScorerRanksEdgesAboveRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := testGraph(rng, 60, 10)
	e, err := PANE(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewLinkScorer(e)
	var edgeScores, nonScores []float64
	for u := 0; u < g.N; u++ {
		for _, v := range g.OutNeighbors(u) {
			edgeScores = append(edgeScores, s.Directed(u, int(v)))
		}
	}
	for i := 0; i < 500; i++ {
		u, v := rng.Intn(g.N), rng.Intn(g.N)
		if u != v && !g.HasEdge(u, v) {
			nonScores = append(nonScores, s.Directed(u, v))
		}
	}
	if meanOf(edgeScores) <= meanOf(nonScores) {
		t.Fatalf("edges do not outscore non-edges: %v vs %v", meanOf(edgeScores), meanOf(nonScores))
	}
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestClassifierFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := testGraph(rng, 15, 5)
	e, err := PANE(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	feats := e.ClassifierFeatures()
	if feats.Rows != g.N || feats.Cols != e.K() {
		t.Fatal("feature shape wrong")
	}
	half := e.Xf.Cols
	for v := 0; v < g.N; v++ {
		row := feats.Row(v)
		nf := mat.Norm2(row[:half])
		nb := mat.Norm2(row[half:])
		if math.Abs(nf-1) > 1e-9 && nf != 0 {
			t.Fatalf("forward half not normalized: %v", nf)
		}
		if math.Abs(nb-1) > 1e-9 && nb != 0 {
			t.Fatalf("backward half not normalized: %v", nb)
		}
	}
}

func TestPANERandomInitWorseEarly(t *testing.T) {
	// Figure 7/8's premise: at a small iteration budget PANE (greedy)
	// yields a lower objective than PANE-R (random init).
	rng := rand.New(rand.NewSource(10))
	g := testGraph(rng, 50, 10)
	cfg := smallConfig()
	cfg.CCDIters = 1
	f, b := AffinityFromGraph(g, cfg.Alpha, cfg.Iterations(), 1)
	greedy, err := PANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	random, err := PANERandomInit(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Objective(greedy, f, b) >= Objective(random, f, b) {
		t.Fatal("greedy init not better than random at 1 CCD sweep")
	}
}

// TestTrainReportsWhereTimeWent: Train is ParallelPANE plus a Timing whose
// parts fit inside their totals and whose one-line form names every stage.
func TestTrainReportsWhereTimeWent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := testGraph(rng, 120, 12)
	cfg := smallConfig()
	want, err := ParallelPANE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, tm, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(got.Xf.Dense().Data, want.Xf.Dense().Data) || !rowsEqual(got.Xb.Dense().Data, want.Xb.Dense().Data) || !rowsEqual(got.Y.Data, want.Y.Data) {
		t.Fatal("Train and ParallelPANE disagree")
	}
	if tm.Affinity <= 0 || tm.Init <= 0 || tm.CCD <= 0 || tm.QR <= 0 || tm.CCDNode <= 0 || tm.CCDAttr <= 0 {
		t.Fatalf("a stage took no time: %+v", tm)
	}
	if tm.Sketch+tm.QR+tm.Project > tm.Init || tm.CCDNode+tm.CCDAttr > tm.CCD {
		t.Fatalf("parts exceed their totals: %+v", tm)
	}
	for _, stage := range []string{"affinity", "init", "sketch", "QR", "project+Jacobi", "CCD", "node", "attr"} {
		if !strings.Contains(tm.String(), stage) {
			t.Fatalf("%q missing from %q", stage, tm.String())
		}
	}
	if _, _, err := Train(g, Config{K: 3}); err == nil {
		t.Fatal("Train accepted an odd K")
	}
}
