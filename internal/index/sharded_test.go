package index

import (
	"math/rand"
	"testing"

	"pane/internal/mat"
)

func randMatrix(r, c int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// shardExact splits data into s contiguous row shards and wraps each
// block's Exact index with its global base offset.
func shardExact(data *mat.Dense, s, threads int) []Index {
	ranges := mat.SplitRanges(data.Rows, s)
	subs := make([]Index, len(ranges))
	for i, r := range ranges {
		subs[i] = Shift(NewExact(data.RowView(r[0], r[1]), threads), r[0])
	}
	return subs
}

func TestShiftTranslatesIdsAndSkip(t *testing.T) {
	data := randMatrix(10, 4, 3)
	base := 100
	idx := Shift(NewExact(data.RowView(5, 10), 1), base+5)
	q := data.Row(0)

	res := idx.Search(q, 3, Options{})
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.ID < base+5 || r.ID >= base+10 {
			t.Fatalf("id %d outside shifted range [%d,%d)", r.ID, base+5, base+10)
		}
	}
	// Skip receives GLOBAL ids: excluding the top hit must drop exactly it.
	top := res[0]
	res2 := idx.Search(q, 3, Options{Skip: func(id int) bool { return id == top.ID }})
	for _, r := range res2 {
		if r.ID == top.ID {
			t.Fatalf("skipped id %d still present", top.ID)
		}
	}
	if idx.Len() != 5 || idx.Dim() != 4 || idx.Kind() != KindExact {
		t.Fatalf("metadata len=%d dim=%d kind=%q", idx.Len(), idx.Dim(), idx.Kind())
	}
}

func TestShiftZeroBaseIsIdentity(t *testing.T) {
	x := NewExact(randMatrix(4, 2, 1), 1)
	if Shift(x, 0) != Index(x) {
		t.Fatal("Shift with base 0 should return the index unchanged")
	}
}

// TestSearchShardedMatchesSingleExact is the determinism core of the
// sharded serving path: for every shard count, the fan-out/merge answer
// must be bit-for-bit identical to one Exact index over the full matrix.
func TestSearchShardedMatchesSingleExact(t *testing.T) {
	data := randMatrix(257, 6, 42) // odd size so shard boundaries are uneven
	single := NewExact(data, 2)
	rng := rand.New(rand.NewSource(7))
	for _, s := range []int{1, 2, 3, 4, 8, 16} {
		subs := shardExact(data, s, 1)
		for trial := 0; trial < 20; trial++ {
			q := make([]float64, 6)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			skipID := rng.Intn(data.Rows)
			opt := Options{Skip: func(id int) bool { return id == skipID }}
			want := single.Search(q, 10, opt)
			got := SearchSharded(subs, q, 10, opt)
			if len(got) != len(want) {
				t.Fatalf("shards=%d: %d results, want %d", s, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d trial=%d rank=%d: %v != %v", s, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSearchShardedSkipsNilShards(t *testing.T) {
	data := randMatrix(20, 3, 5)
	subs := shardExact(data, 2, 1)
	subs = append(subs, nil) // a shard with no candidates in this space
	q := data.Row(0)
	want := NewExact(data, 1).Search(q, 5, Options{})
	got := SearchSharded(subs, q, 5, Options{})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %v != %v", i, got[i], want[i])
		}
	}
	if res := SearchSharded([]Index{nil, nil}, q, 5, Options{}); res != nil {
		t.Fatalf("all-nil shards returned %v", res)
	}
}

// TestSearchShardedIVFFullProbe: sharded IVF probing every list in every
// shard degenerates to sharded exact, which equals single exact.
func TestSearchShardedIVFFullProbe(t *testing.T) {
	data := randMatrix(300, 5, 9)
	single := NewExact(data, 1)
	ranges := mat.SplitRanges(data.Rows, 3)
	subs := make([]Index, len(ranges))
	maxList := 0
	for i, r := range ranges {
		iv := BuildIVF(data.RowView(r[0], r[1]), IVFConfig{NList: 4, Seed: 3})
		if iv.NList() > maxList {
			maxList = iv.NList()
		}
		subs[i] = Shift(iv, r[0])
	}
	q := data.Row(17)
	want := single.Search(q, 8, Options{})
	got := SearchSharded(subs, q, 8, Options{NProbe: maxList})
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %v != %v", i, got[i], want[i])
		}
	}
}
