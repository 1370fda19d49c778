package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pane/internal/graph"
)

func TestAUCPerfectRanking(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if got := AUC(scores, labels); got != 1 {
		t.Fatalf("AUC = %v, want 1", got)
	}
}

func TestAUCWorstRanking(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []bool{true, true, false, false}
	if got := AUC(scores, labels); got != 0 {
		t.Fatalf("AUC = %v, want 0", got)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	// All-tied scores must give exactly 0.5 via average ranks.
	scores := []float64{1, 1, 1, 1}
	labels := []bool{true, false, true, false}
	if got := AUC(scores, labels); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.5", got)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// One inversion among 2x2: positives {0.9, 0.3}, negatives {0.5, 0.1}
	// → pairs won: (0.9>0.5),(0.9>0.1),(0.3<0.5 lose),(0.3>0.1) = 3/4.
	scores := []float64{0.9, 0.3, 0.5, 0.1}
	labels := []bool{true, true, false, false}
	if got := AUC(scores, labels); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.75", got)
	}
}

func TestAUCEmptyClass(t *testing.T) {
	if got := AUC([]float64{1, 2}, []bool{true, true}); got != 0.5 {
		t.Fatalf("degenerate AUC = %v, want 0.5", got)
	}
}

func TestAUCPropertyInvariantToMonotoneTransform(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
			labels[i] = rng.Float64() < 0.5
		}
		labels[0], labels[1] = true, false // ensure both classes
		a1 := AUC(scores, labels)
		trans := make([]float64, n)
		for i, s := range scores {
			trans[i] = math.Exp(s) + 3
		}
		a2 := AUC(trans, labels)
		return math.Abs(a1-a2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAveragePrecisionPerfect(t *testing.T) {
	scores := []float64{3, 2, 1}
	labels := []bool{true, true, false}
	if got := AveragePrecision(scores, labels); got != 1 {
		t.Fatalf("AP = %v, want 1", got)
	}
}

func TestAveragePrecisionKnown(t *testing.T) {
	// Ranking: pos, neg, pos → precisions at hits: 1/1, 2/3 → AP = 5/6.
	scores := []float64{3, 2, 1}
	labels := []bool{true, false, true}
	if got := AveragePrecision(scores, labels); math.Abs(got-5.0/6) > 1e-12 {
		t.Fatalf("AP = %v, want %v", got, 5.0/6)
	}
}

func TestAveragePrecisionNoPositives(t *testing.T) {
	if got := AveragePrecision([]float64{1, 2}, []bool{false, false}); got != 0 {
		t.Fatalf("AP = %v, want 0", got)
	}
}

func TestF1CountsSingleLabel(t *testing.T) {
	c := NewF1Counts()
	c.Add([]int{1}, []int{1}) // TP
	c.Add([]int{1}, []int{2}) // FP for 1, FN for 2
	c.Add([]int{2}, []int{2}) // TP for 2
	micro := c.MicroF1()
	// tp=2, fp=1, fn=1 → P=2/3, R=2/3 → F1=2/3.
	if math.Abs(micro-2.0/3) > 1e-12 {
		t.Fatalf("MicroF1 = %v, want 2/3", micro)
	}
	macro := c.MacroF1()
	// class1: tp1 fp1 fn0 → F1=2/3; class2: tp1 fp0 fn1 → F1=2/3.
	if math.Abs(macro-2.0/3) > 1e-12 {
		t.Fatalf("MacroF1 = %v, want 2/3", macro)
	}
}

func TestF1CountsMultiLabel(t *testing.T) {
	c := NewF1Counts()
	c.Add([]int{1, 2}, []int{1, 3})
	// TP(1), FP(2), FN(3).
	if c.TP[1] != 1 || c.FP[2] != 1 || c.FN[3] != 1 {
		t.Fatalf("counts wrong: %+v", c)
	}
	if c.MicroF1() != 0.5 { // tp=1 fp=1 fn=1 → P=R=0.5
		t.Fatalf("MicroF1 = %v", c.MicroF1())
	}
}

func TestF1PerfectAndEmpty(t *testing.T) {
	c := NewF1Counts()
	c.Add([]int{4}, []int{4})
	if c.MicroF1() != 1 || c.MacroF1() != 1 {
		t.Fatal("perfect prediction should score 1")
	}
	empty := NewF1Counts()
	if empty.MacroF1() != 0 || empty.MicroF1() != 0 {
		t.Fatal("empty accumulator should score 0")
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || math.Abs(s-2) > 1e-12 {
		t.Fatalf("MeanStd = %v, %v", m, s)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStd should be 0,0")
	}
}

func testGraph(rng *rand.Rand, n, d int) *graph.Graph {
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: (v + 1) % n})
		edges = append(edges, graph.Edge{Src: v, Dst: rng.Intn(n)})
	}
	var attrs []graph.AttrEntry
	for v := 0; v < n; v++ {
		for a := 0; a < 2; a++ {
			attrs = append(attrs, graph.AttrEntry{Node: v, Attr: rng.Intn(d), Weight: 1})
		}
	}
	labels := make([][]int, n)
	for v := range labels {
		labels[v] = []int{v % 3}
	}
	g, err := graph.New(n, d, edges, attrs, labels)
	if err != nil {
		panic(err)
	}
	return g
}

func TestSplitAttributesProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := testGraph(rng, 40, 8)
	sp := SplitAttributes(g, 0.8, rng)
	total := g.NNZAttr()
	if got := sp.Train.NNZAttr(); got != int(float64(total)*0.8) {
		t.Fatalf("train entries = %d, want %d", got, int(float64(total)*0.8))
	}
	if len(sp.TestPos) != total-sp.Train.NNZAttr() {
		t.Fatal("test positives wrong count")
	}
	if len(sp.TestNeg) != len(sp.TestPos) {
		t.Fatal("negatives must match positives count")
	}
	// Negatives really are absent from the original matrix.
	for _, p := range sp.TestNeg {
		if g.Attr.At(p[0], p[1]) != 0 {
			t.Fatal("sampled negative is actually present")
		}
	}
	// Topology untouched.
	if sp.Train.M() != g.M() {
		t.Fatal("edge set must be preserved by attribute split")
	}
}

func TestSplitAttributesEvaluateOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := testGraph(rng, 30, 6)
	sp := SplitAttributes(g, 0.8, rng)
	// An oracle that scores true pairs 1 and negatives 0 gets AUC=AP=1.
	auc, ap := sp.Evaluate(func(v, r int) float64 {
		if g.Attr.At(v, r) != 0 {
			return 1
		}
		return 0
	})
	if auc != 1 || ap != 1 {
		t.Fatalf("oracle AUC=%v AP=%v, want 1,1", auc, ap)
	}
}

func TestSplitLinksProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testGraph(rng, 50, 5)
	sp := SplitLinks(g, 0.3, rng)
	wantRemoved := int(float64(g.M()) * 0.3)
	if len(sp.TestPos) != wantRemoved {
		t.Fatalf("removed %d, want %d", len(sp.TestPos), wantRemoved)
	}
	if sp.Train.M() != g.M()-wantRemoved {
		t.Fatal("residual edge count wrong")
	}
	if len(sp.TestNeg) != len(sp.TestPos) {
		t.Fatal("negative count mismatch")
	}
	for _, e := range sp.TestNeg {
		if g.HasEdge(e.Src, e.Dst) {
			t.Fatal("negative edge exists in original graph")
		}
	}
	for _, e := range sp.TestPos {
		if sp.Train.HasEdge(e.Src, e.Dst) {
			t.Fatal("removed edge still present in residual graph")
		}
	}
	// Attributes untouched.
	if sp.Train.NNZAttr() != g.NNZAttr() {
		t.Fatal("attribute set must be preserved by link split")
	}
}

func TestSplitNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := testGraph(rng, 30, 5)
	sp := SplitNodes(g, 0.5, rng)
	if len(sp.TrainIdx)+len(sp.TestIdx) != 30 {
		t.Fatal("split does not cover all labelled nodes")
	}
	if len(sp.TrainIdx) != 15 {
		t.Fatalf("train size %d, want 15", len(sp.TrainIdx))
	}
	seen := map[int]bool{}
	for _, v := range append(append([]int{}, sp.TrainIdx...), sp.TestIdx...) {
		if seen[v] {
			t.Fatal("node appears twice")
		}
		seen[v] = true
	}
}

// MeanStd returns the mean and population standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}
