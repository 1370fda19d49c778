package index

import (
	"fmt"
	"testing"

	"pane/internal/core"
	"pane/internal/mat"
)

// batchVsAlone answers qs together and one by one over tables and
// requires identical results, member by member.
func batchVsAlone(t *testing.T, label string, tables []*Table, qs []BatchQuery) [][]core.Scored {
	t.Helper()
	together := make([][]core.Scored, len(qs))
	SearchBatch(tables, qs, together)
	for i, q := range qs {
		var alone [1][]core.Scored
		SearchBatch(tables, []BatchQuery{q}, alone[:])
		if !sameScored(together[i], alone[0]) {
			t.Fatalf("%s member %d:\nin the batch %v\nalone        %v", label, i, together[i], alone[0])
		}
	}
	return together
}

// TestSearchBatchTileBoundaries walks row counts on both sides of a tile
// edge, under every codec and both layouts: a member's answer must not
// depend on where the tiles fall, and a skip that removes the member's
// best candidate must remove it from that member only.
func TestSearchBatchTileBoundaries(t *testing.T) {
	const dim, members = 8, 5
	queries := mixture(members, dim, 4, 71)
	for c := Codec(0); c < NumCodecs; c++ {
		tile := tileRows(codecs[c].rowBytes(dim))
		for _, n := range []int{1, tile - 1, tile, tile + 1, 2*tile + 1} {
			data := mixture(n, dim, 4, int64(72+n))
			// The rows on either side of the first tile edge are planted as
			// some member's clear winner, so a row lost at the edge shows.
			for _, r := range []int{tile - 1, tile} {
				if r < n {
					for j, v := range queries.Row(r % members) {
						data.Row(r)[j] = 3 * v
					}
				}
			}
			flatCell := NewExact(data, 1).Encode(c, 0)
			for _, tab := range []*Table{flatCell, BuildIVF(data, IVFConfig{NList: 3, NProbe: 2, Seed: 1}).Encode(c, 0)} {
				label := fmt.Sprintf("%s n=%d", tab.Kind(), n)
				qs := make([]BatchQuery, members)
				for i := range qs {
					qs[i] = BatchQuery{Q: queries.Row(i), K: 3}
				}
				plain := batchVsAlone(t, label, []*Table{tab}, qs)
				// Member 0 now skips its winner; the others keep theirs.
				winner := plain[0][0].ID
				qs[0].Opt.Skip = func(id int) bool { return id == winner }
				skipped := batchVsAlone(t, label+" skip", []*Table{tab}, qs)
				for _, s := range skipped[0] {
					if s.ID == winner {
						t.Fatalf("%s: skipped id %d answered", label, winner)
					}
				}
				for i := 1; i < members; i++ {
					if !sameScored(skipped[i], plain[i]) {
						t.Fatalf("%s: member %d changed when member 0 skipped", label, i)
					}
				}
			}
		}
	}
}

// TestSearchBatchUnitsAndBlocks covers the two other cuts: row ranges
// (shards × threads, past minParallelRows) and query blocks (a batch
// wider than queryBlock makes a second pass). Flat cells answer alike at
// every partition, so the unsharded single-threaded table is the oracle.
func TestSearchBatchUnitsAndBlocks(t *testing.T) {
	const dim = 6
	data := mixture(3*minParallelRows+17, dim, 12, 81)
	queries := mixture(queryBlock+3, dim, 12, 82)
	qs := make([]BatchQuery, queries.Rows)
	for i := range qs {
		self := i * 31
		qs[i] = BatchQuery{Q: queries.Row(i), K: 1 + i%12, Opt: Options{NProbe: i % 5, Skip: func(id int) bool { return id == self }}}
	}
	qs[7].K = 0 // answered nil, scans nothing
	for c := Codec(0); c < NumCodecs; c++ {
		whole := NewExact(data, 1).Encode(c, 0)
		want := make([][]core.Scored, len(qs))
		for i, q := range qs {
			want[i] = whole.Search(q.Q, q.K, q.Opt)
		}
		if want[7] != nil {
			t.Fatalf("k=0 answered %v", want[7])
		}
		for _, shards := range []int{1, 2, 3} {
			for _, threads := range []int{1, 3} {
				var flatTabs, ivfTabs []*Table
				for _, r := range mat.SplitRanges(data.Rows, shards) {
					rows := data.RowView(r[0], r[1])
					flatTabs = append(flatTabs, NewExact(rows, threads).Encode(c, 0).Shift(r[0]))
					ivfTabs = append(ivfTabs, BuildIVF(rows, IVFConfig{NList: 5, Seed: 2, Threads: threads}).Encode(c, 0).Shift(r[0]))
				}
				label := fmt.Sprintf("%s shards=%d threads=%d", whole.Kind(), shards, threads)
				if units := flatTabs[0].plan(nil, make([]member, 2)); shards == 1 && len(units) != threads {
					t.Fatalf("%s: %d units, the thread split did not engage", label, len(units))
				}
				got := batchVsAlone(t, label, flatTabs, qs)
				for i := range qs {
					if !sameScored(got[i], want[i]) {
						t.Fatalf("%s member %d:\nsharded batch %v\nunsharded     %v", label, i, got[i], want[i])
					}
				}
				batchVsAlone(t, label+" inverted", ivfTabs, qs)
			}
		}
	}
}

// TestSearchBatchStats pins the work counters. On every cell, at batch
// sizes 1 to 9 (every count of four-query kernel calls and of queries
// left over) and 65 (a second pass over the rows), a batch answers each
// member as it is answered alone, ids and score bits; it scores every
// (member, row) pair its members would score alone, and walks the
// encoded bytes of the rows its members visit once a pass. The candidate
// count is off a multiple of 8, so the last group holds pad rows, and
// none is counted. A flat cell's batch also re-scores exactly the pairs
// its members would re-score alone: the float64 and binary16 cells a few
// rows per member — at least its k, far fewer than they scan — and the
// int8 cell its rerank·k survivors. An inverted cell's need not: a batch
// walks the lists its members probe in list order, a query alone in
// probe order, and the floor a member's scan re-scores under rises with
// the lists it has seen.
func TestSearchBatchStats(t *testing.T) {
	const n, dim, k = 1003, 16, 4
	data := mixture(n, dim, 4, 91)
	queries := mixture(65, dim, 4, 92)
	ex, iv := NewExact(data, 1), BuildIVF(data, IVFConfig{NList: 9, NProbe: 3, Seed: 5})
	for _, members := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 65} {
		qs := make([]BatchQuery, members)
		for i := range qs {
			qs[i] = BatchQuery{Q: queries.Row(i), K: k}
		}
		out := make([][]core.Scored, members)
		for c := Codec(0); c < NumCodecs; c++ {
			for _, tab := range []*Table{ex.Encode(c, 0), iv.Encode(c, 0)} {
				label := fmt.Sprintf("%s, %d members", tab.Kind(), members)
				rowBytes, rescoreBytes := int64(codecs[c].rowBytes(dim)), int64(codecs[c].rescoreBytes(dim))
				batch := SearchBatch([]*Table{tab}, qs, out)
				var alone Stats
				var walked int64 // rows the members visit, once a pass
				for lo := 0; lo < members; lo += queryBlock {
					visited := map[int]bool{}
					for i := lo; i < min(lo+queryBlock, members); i++ {
						var one [1][]core.Scored
						st := SearchBatch([]*Table{tab}, qs[i:i+1], one[:])
						if !sameBits(out[i], one[0]) {
							t.Fatalf("%s member %d:\nin the batch %v\nalone        %v", label, i, out[i], one[0])
						}
						if st.BytesStreamed != st.RowsScored*rowBytes+st.Reranked*rescoreBytes {
							t.Fatalf("%s member %d alone: %d bytes for %d rows, %d reranked", label, i, st.BytesStreamed, st.RowsScored, st.Reranked)
						}
						alone.RowsScored += st.RowsScored
						alone.Reranked += st.Reranked
						for _, v := range tab.lay.probe(qs[i].Q, 0) {
							visited[v.ID] = true
						}
					}
					for b := range visited {
						walked += int64(tab.blocks[b].n)
					}
				}
				if batch.RowsScored != alone.RowsScored || batch.BytesStreamed != walked*rowBytes+batch.Reranked*rescoreBytes {
					t.Fatalf("%s: batch %+v, members alone %+v, %d rows walked", label, batch, alone, walked)
				}
				if tab.inverted() != nil {
					continue
				}
				if batch.Reranked != alone.Reranked {
					t.Fatalf("%s: %d pairs reranked, %d by the members alone", label, batch.Reranked, alone.Reranked)
				}
				var lo, hi int64
				switch c {
				case F64, F16:
					lo, hi = int64(members*k), int64(members*n/10)
				case I8:
					lo, hi = int64(members*DefaultRerank*k), int64(members*DefaultRerank*k)
				}
				if batch.RowsScored != int64(members*n) || batch.Reranked < lo || batch.Reranked > hi {
					t.Fatalf("%s: %d pairs scored, %d reranked; want %d, %d..%d", label, batch.RowsScored, batch.Reranked, members*n, lo, hi)
				}
			}
		}
	}

	// The exact and binary16 cells' books on a fixed-seed matrix, pinned:
	// however the scan groups its kernel calls, it re-scores the same rows.
	data = mixture(3000, 64, 8, 93)
	queries = mixture(32, 64, 8, 94)
	ex = NewExact(data, 1)
	qs := make([]BatchQuery, queries.Rows)
	for i := range qs {
		qs[i] = BatchQuery{Q: queries.Row(i), K: 10}
	}
	out := make([][]core.Scored, len(qs))
	for _, c := range []struct {
		tab              *Table
		members          int
		scored, reranked int64
	}{
		{ex, 1, 3000, 94}, {ex, 32, 32 * 3000, 3095},
		{ex.Encode(F16, 0), 1, 3000, 96}, {ex.Encode(F16, 0), 32, 32 * 3000, 3290},
	} {
		st := SearchBatch([]*Table{c.tab}, qs[:c.members], out)
		if st.RowsScored != c.scored || st.Reranked != c.reranked {
			t.Fatalf("%s, %d members: %d rows scored, %d reranked; want %d, %d", c.tab.Kind(), c.members, st.RowsScored, st.Reranked, c.scored, c.reranked)
		}
	}
}

// TestSearchAllocationsIndependentOfBlocks: a search's allocations do not
// grow with the blocks it visits. Every codec's scan runs once per
// visited block, so anything it heap-allocates (a span escaping into the
// re-score through a function value did) shows as one allocation per
// probed list. The margin absorbs sync.Pool drops under -race.
func TestSearchAllocationsIndependentOfBlocks(t *testing.T) {
	const nlist = 64
	data := mixture(4000, 16, 8, 141)
	iv := BuildIVF(data, IVFConfig{NList: nlist, Seed: 5})
	q := queries(16, 1, 142)[0]
	for c := Codec(0); c < NumCodecs; c++ {
		tab := iv.Encode(c, 0)
		allocs := func(nprobe int) float64 {
			return testing.AllocsPerRun(50, func() { tab.Search(q, 10, Options{NProbe: nprobe}) })
		}
		one, all := allocs(1), allocs(nlist)
		t.Logf("%s: %.1f allocations probing 1 list, %.1f probing %d", tab.Kind(), one, all, nlist)
		if all-one > nlist/4 {
			t.Errorf("%s: %.1f allocations probing 1 list but %.1f probing %d", tab.Kind(), one, all, nlist)
		}
	}
}
