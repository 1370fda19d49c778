package sparse

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// naiveReach is the reference BFS: repeated one-hop expansion over the
// dense neighbor sets.
func naiveReach(m *CSR, seeds []int, steps int) []int {
	in := make(map[int]bool)
	for _, s := range seeds {
		in[s] = true
	}
	for step := 0; step < steps; step++ {
		next := make(map[int]bool, len(in))
		for v := range in {
			next[v] = true
			cols, _ := m.Row(v)
			for _, c := range cols {
				next[int(c)] = true
			}
		}
		in = next
	}
	out := make([]int, 0, len(in))
	for v := range in {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func TestReachMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(40)
		m := randomCSR(rng, n, n, 0.1)
		nSeeds := 1 + rng.Intn(4)
		seeds := make([]int, nSeeds)
		for i := range seeds {
			seeds[i] = rng.Intn(n)
		}
		steps := rng.Intn(4)
		got := Reach(m, seeds, steps)
		want := naiveReach(m, seeds, steps)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Reach size %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Reach[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestReachSortedAndDedup(t *testing.T) {
	m := NewCSR(4, 4, []Entry{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}})
	got := Reach(m, []int{2, 0, 2}, 1)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Reach = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Reach = %v, want %v", got, want)
		}
	}
}

func TestReachZeroSteps(t *testing.T) {
	m := NewCSR(3, 3, []Entry{{0, 1, 1}, {1, 2, 1}})
	got := Reach(m, []int{1}, 0)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Reach with 0 steps = %v, want [1]", got)
	}
}

func TestReachSeedOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range seed")
		}
	}()
	m := NewCSR(3, 3, nil)
	Reach(m, []int{3}, 1)
}

// csrEqual reports whether two CSRs have identical structure and values.
func csrEqual(a, b *CSR) bool {
	if a.R != b.R || a.C != b.C || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.R; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		if !slices.Equal(ac, bc) || !slices.Equal(av, bv) {
			return false
		}
	}
	return true
}

func TestMergeEntriesSumMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sum := func(old, add float64) float64 { return old + add }
	for trial := 0; trial < 30; trial++ {
		r, c := 4+rng.Intn(70), 4+rng.Intn(20) // up to five row pages
		// Quarter-integer weights make float addition exact, so the merged
		// result is bit-identical to a rebuild no matter the addition order.
		var base []Entry
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if rng.Float64() < 0.15 {
					base = append(base, Entry{i, j, float64(1+rng.Intn(16)) * 0.25})
				}
			}
		}
		m := NewCSR(r, c, base)
		var add []Entry
		for k := 0; k < rng.Intn(12); k++ {
			add = append(add, Entry{rng.Intn(r), rng.Intn(c), float64(1+rng.Intn(16)) * 0.25})
		}
		got := m.MergeEntries(add, sum)
		want := NewCSR(r, c, append(append([]Entry(nil), base...), add...))
		if !csrEqual(got, want) {
			t.Fatalf("trial %d: MergeEntries(sum) differs from rebuild", trial)
		}
		// The contiguous form assembled from the merged pages is the
		// rebuild's own arrays, which is what a bundle writes.
		gp, gc, gv := got.Flat()
		wp, wc, wv := want.Flat()
		if !slices.Equal(gp, wp) || !slices.Equal(gc, wc) || !slices.Equal(gv, wv) {
			t.Fatalf("trial %d: Flat() of the merged matrix differs from the rebuild's", trial)
		}
	}
}

func TestMergeEntriesKeepOne(t *testing.T) {
	one := func(old, add float64) float64 { return 1 }
	m := NewCSR(3, 3, []Entry{{0, 1, 1}, {2, 2, 1}})
	got := m.MergeEntries([]Entry{{0, 1, 1}, {0, 2, 1}, {0, 2, 1}, {1, 0, 1}}, one)
	want := NewCSR(3, 3, []Entry{{0, 1, 1}, {0, 2, 1}, {1, 0, 1}, {2, 2, 1}})
	// The keep-one combine collapses duplicates to weight 1, the adjacency
	// semantics of graph.New (NewCSR would sum them; want lists none).
	if !csrEqual(got, want) {
		t.Fatalf("MergeEntries(keep-one) = %+v, want %+v", got, want)
	}
}

func TestMergeEntriesEmptyReturnsReceiver(t *testing.T) {
	m := NewCSR(2, 2, []Entry{{0, 0, 1}})
	if m.MergeEntries(nil, func(o, a float64) float64 { return o + a }) != m {
		t.Fatal("empty merge should return the receiver")
	}
}

func TestMergeEntriesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range entry")
		}
	}()
	m := NewCSR(2, 2, nil)
	m.MergeEntries([]Entry{{2, 0, 1}}, func(o, a float64) float64 { return o + a })
}
