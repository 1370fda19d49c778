package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pane/internal/graph"
	"pane/internal/mat"
)

func topkEmbedding(t *testing.T) (*graph.Graph, *Embedding) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	g := testGraph(rng, 40, 12)
	e, err := PANE(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g, e
}

func TestTopKAttrsMatchesBruteForce(t *testing.T) {
	g, e := topkEmbedding(t)
	for _, v := range []int{0, 7, 39} {
		got := e.TopKAttrs(v, 5, nil)
		// Brute force.
		all := make([]Scored, g.D)
		for r := 0; r < g.D; r++ {
			all[r] = Scored{ID: r, Score: e.AttrScore(v, r)}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Score > all[j].Score })
		if len(got) != 5 {
			t.Fatalf("got %d results", len(got))
		}
		for i := range got {
			if got[i].Score != all[i].Score {
				t.Fatalf("v=%d rank %d: got %v want %v", v, i, got[i], all[i])
			}
		}
	}
}

func TestTopKAttrsExclude(t *testing.T) {
	_, e := topkEmbedding(t)
	full := e.TopKAttrs(3, 3, nil)
	excl := map[int]bool{full[0].ID: true}
	got := e.TopKAttrs(3, 3, excl)
	for _, s := range got {
		if s.ID == full[0].ID {
			t.Fatal("excluded attribute returned")
		}
	}
	if got[0].Score > full[0].Score {
		t.Fatal("ordering inconsistent after exclusion")
	}
}

func TestTopKAttrsDescending(t *testing.T) {
	_, e := topkEmbedding(t)
	got := e.TopKAttrs(1, 8, nil)
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("not descending at %d: %v", i, got)
		}
	}
}

func TestTopKAttrsKLargerThanD(t *testing.T) {
	g, e := topkEmbedding(t)
	got := e.TopKAttrs(0, g.D+50, nil)
	if len(got) != g.D {
		t.Fatalf("len = %d, want %d", len(got), g.D)
	}
}

func TestTopKTargetsMatchesBruteForce(t *testing.T) {
	g, e := topkEmbedding(t)
	s := NewLinkScorer(e)
	u := 5
	got := s.TopKTargets(u, 6, nil)
	var all []Scored
	for v := 0; v < g.N; v++ {
		if v == u {
			continue
		}
		all = append(all, Scored{ID: v, Score: s.Directed(u, v)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Score > all[j].Score })
	for i := range got {
		if d := got[i].Score - all[i].Score; d > 1e-9 || d < -1e-9 {
			t.Fatalf("rank %d: got %v want %v", i, got[i], all[i])
		}
	}
}

func TestTopKTargetsExcludesSelfAndGiven(t *testing.T) {
	g, e := topkEmbedding(t)
	s := NewLinkScorer(e)
	u := 2
	excl := map[int]bool{}
	for _, v := range g.OutNeighbors(u) {
		excl[int(v)] = true
	}
	got := s.TopKTargets(u, g.N, excl)
	for _, r := range got {
		if r.ID == u {
			t.Fatal("self returned")
		}
		if excl[r.ID] {
			t.Fatal("excluded target returned")
		}
	}
	if len(got) != g.N-1-len(excl) {
		t.Fatalf("len = %d, want %d", len(got), g.N-1-len(excl))
	}
}

func TestTopKAccumulatorMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		// Coarse quantization forces plenty of score ties.
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(8))
		}
		// Offer in a random order: the result must not depend on it. The
		// floor agrees with Admits on every score off it.
		acc := NewTopK(k)
		for _, i := range rng.Perm(n) {
			if f, s := acc.Floor(), scores[i]; s != f && acc.Admits(i, s) != (s > f) {
				t.Fatalf("trial %d: floor %v, Admits(%d, %v) = %v", trial, f, i, s, !(s > f))
			}
			acc.Offer(i, scores[i])
		}
		got := acc.Take()

		all := make([]Scored, n)
		for i, s := range scores {
			all[i] = Scored{ID: i, Score: s}
		}
		sort.Slice(all, func(i, j int) bool { return Better(all[i], all[j]) })
		want := all
		if k < n {
			want = all[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: got %v want %v (k=%d n=%d)", trial, i, got[i], want[i], k, n)
			}
		}
	}
}

// TestTopKResetAndPool: a pooled, Reset accumulator behaves exactly like
// a fresh one — including shrinking k between uses and surviving a
// drain-refill cycle — and Take's output remains valid after the
// accumulator returns to the pool.
func TestTopKResetAndPool(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(12)
		n := 1 + rng.Intn(100)
		fresh := NewTopK(k)
		pooled := GetTopK(k + 5) // deliberately mis-sized, then fixed
		pooled.Reset(k)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(6))
		}
		for i, s := range scores {
			fresh.Offer(i, s)
			pooled.Offer(i, s)
		}
		want := fresh.Take()
		got := pooled.Take()
		PutTopK(pooled)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
	// Reset(k) with k < 1 keeps nothing, like NewTopK.
	tk := GetTopK(3)
	tk.Reset(0)
	tk.Offer(1, 10)
	if tk.Len() != 0 {
		t.Fatal("Reset(0) accumulator kept a candidate")
	}
	PutTopK(tk)
}

func TestTopKTieBreakAscendingID(t *testing.T) {
	// An embedding with identical attribute rows produces exact score
	// ties; the ranking must come back in ascending attribute id.
	row := []float64{0.3, 0.7}
	e := &Embedding{
		Xf: mat.Page(mat.FromRows([][]float64{{1, 2}})),
		Xb: mat.Page(mat.FromRows([][]float64{{0.5, 0.25}})),
		Y:  mat.FromRows([][]float64{row, row, row, row}),
	}
	got := e.TopKAttrs(0, 3, nil)
	for i, s := range got {
		if s.ID != i {
			t.Fatalf("tie order %v, want ids 0,1,2", got)
		}
	}
	// And with an exclusion, the next-smallest id fills in.
	got = e.TopKAttrs(0, 3, map[int]bool{0: true})
	if got[0].ID != 1 || got[1].ID != 2 || got[2].ID != 3 {
		t.Fatalf("tie order with exclusion %v", got)
	}
}

func TestTopKZeroAndNegativeK(t *testing.T) {
	acc := NewTopK(0)
	acc.Offer(1, 5)
	if acc.Len() != 0 || len(acc.Take()) != 0 || !math.IsInf(acc.Floor(), 1) {
		t.Fatal("k=0 kept candidates")
	}
	acc = NewTopK(-3)
	acc.Offer(1, 5)
	if len(acc.Take()) != 0 {
		t.Fatal("negative k kept candidates")
	}
}

func TestPANEErrorsWithoutAttributes(t *testing.T) {
	g, err := graph.New(5, 0, []graph.Edge{{Src: 0, Dst: 1}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PANE(g, smallConfig()); err == nil {
		t.Fatal("attribute-less graph accepted by PANE")
	}
	if _, err := ParallelPANE(g, smallConfig()); err == nil {
		t.Fatal("attribute-less graph accepted by ParallelPANE")
	}
	if _, err := PANERandomInit(g, smallConfig()); err == nil {
		t.Fatal("attribute-less graph accepted by PANERandomInit")
	}
}

func TestPANETinyGraphs(t *testing.T) {
	// Degenerate but valid inputs must not panic: one attribute, two
	// nodes, K larger than d.
	g, err := graph.New(2, 1,
		[]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}},
		[]graph.AttrEntry{{Node: 0, Attr: 0, Weight: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 8, Alpha: 0.5, Eps: 0.1, Threads: 3, Seed: 1}
	for _, run := range []func(*graph.Graph, Config) (*Embedding, error){PANE, ParallelPANE} {
		e, err := run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e.Xf.Rows != 2 || e.Y.Rows != 1 {
			t.Fatal("degenerate shapes wrong")
		}
	}
}

func TestPANEDisconnectedAndDangling(t *testing.T) {
	// Dangling node (1) and isolated node (3) must flow through the whole
	// pipeline without NaNs.
	g, err := graph.New(4, 2,
		[]graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 0}},
		[]graph.AttrEntry{{Node: 0, Attr: 0, Weight: 1}, {Node: 2, Attr: 1, Weight: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := PANE(g, Config{K: 4, Alpha: 0.5, Eps: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []interface{ Row(int) []float64 }{e.Xf, e.Xb, e.Y} {
		for i := 0; i < 2; i++ {
			for _, v := range m.Row(i) {
				if v != v { // NaN
					t.Fatal("NaN in embedding of degenerate graph")
				}
			}
		}
	}
}
