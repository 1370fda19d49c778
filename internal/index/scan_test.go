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
		tile := tileBytes / codecs[c].rowBytes(dim)
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
					rows := data.RowSlice(r[0], r[1])
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

// TestSearchBatchStats pins the work counters: a batch scores every
// (member, row) pair its members would score alone, re-scores exactly the
// pairs they would re-score alone, and walks the encoded bytes once. The
// float64 and binary16 cells re-score a few rows per member — at least
// its k, far fewer than they scan — and the int8 cell its rerank·k
// survivors.
func TestSearchBatchStats(t *testing.T) {
	const n, dim, members, k = 1000, 16, 7, 4
	data := mixture(n, dim, 4, 91)
	queries := mixture(members, dim, 4, 92)
	qs := make([]BatchQuery, members)
	for i := range qs {
		qs[i] = BatchQuery{Q: queries.Row(i), K: k}
	}
	out := make([][]core.Scored, members)
	for c := Codec(0); c < NumCodecs; c++ {
		tab := NewExact(data, 1).Encode(c, 0)
		rowBytes, rescoreBytes := int64(codecs[c].rowBytes(dim)), int64(codecs[c].rescoreBytes(dim))
		batch := SearchBatch([]*Table{tab}, qs, out)
		var alone Stats
		for i := range qs {
			st := SearchBatch([]*Table{tab}, qs[i:i+1], out)
			alone.RowsScored += st.RowsScored
			alone.Reranked += st.Reranked
			alone.BytesStreamed += st.BytesStreamed
			if st.BytesStreamed != n*rowBytes+st.Reranked*rescoreBytes {
				t.Fatalf("%s member %d alone: %d bytes for %d reranked", tab.Kind(), i, st.BytesStreamed, st.Reranked)
			}
		}
		if batch.RowsScored != members*n || alone.RowsScored != members*n ||
			batch.Reranked != alone.Reranked || batch.BytesStreamed != n*rowBytes+batch.Reranked*rescoreBytes {
			t.Fatalf("%s: batch %+v, members alone %+v", tab.Kind(), batch, alone)
		}
		var lo, hi int64
		switch c {
		case F64, F16:
			lo, hi = members*k, members*n/10
		case I8:
			lo, hi = members*DefaultRerank*k, members*DefaultRerank*k
		}
		if batch.Reranked < lo || batch.Reranked > hi {
			t.Fatalf("%s: %d pairs reranked, want %d..%d", tab.Kind(), batch.Reranked, lo, hi)
		}
	}

	// The exact and binary16 cells' books on a fixed-seed matrix, pinned:
	// however the scan groups its kernel calls, it re-scores the same rows.
	data = mixture(3000, 64, 8, 93)
	queries = mixture(32, 64, 8, 94)
	ex := NewExact(data, 1)
	qs = make([]BatchQuery, queries.Rows)
	for i := range qs {
		qs[i] = BatchQuery{Q: queries.Row(i), K: 10}
	}
	out = make([][]core.Scored, len(qs))
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
