package index

import (
	"time"

	"pane/internal/core"
)

// Sharded serving: a large candidate matrix is split into contiguous row
// shards, each indexed independently (any cell of the layout × codec
// grid), and a search — SearchBatch, see scan.go — scans the shards' row
// ranges in parallel and merges each query's per-range contributions
// under core.Better. Because candidate ids are globally unique and Better
// is a total order, the merged top-k of exact backends is the unique
// global top-k — bit-for-bit independent of the shard count, the thread
// count and the tiling (and likewise for IVF probing every list).
//
// A codec whose scores are approximate needs one extra move to keep that
// guarantee: the survivor CUT must happen globally, not per row range. A
// range's quantized scan contributes its rerank*k best candidates by
// approximate score, the merge selects the global rerank*k best of those
// (approximate scores are range-invariant because quantization is per
// row), and only then does the exact re-rank pick the final k
// (mergePartials). Cutting per range instead would re-rank a
// partition-dependent survivor set and let the answer drift with S.
// Shift gives each shard its global id range, and internal/engine owns
// shard lifecycle and per-shard rebuilds.

// partial is one row range's contribution to one query of a search:
// final-scored results for a codec whose scores are final, or the
// approximate survivor set (exact scores attached) for the int8 codec.
// The zero value is an empty contribution.
type partial struct {
	plain []core.Scored
	quant []approxScored
}

// mergePartials merges one query's per-range contributions into its final
// top-k. Plain parts merge directly under core.Better. Quantized parts
// first pass the GLOBAL survivor cut — the mult*k best by approximate
// score across all ranges, the same cut a search over one range applies —
// and then compete on their exact scores, so the answer does not depend
// on how the rows were partitioned. mult must be the multiplier the
// ranges were scanned with.
func mergePartials(parts []partial, k, mult int) []core.Scored {
	if len(parts) == 1 && parts[0].quant == nil {
		return parts[0].plain // one range's top-k is the answer
	}
	nQuant := 0
	for _, p := range parts {
		nQuant += len(p.quant)
	}
	final := core.GetTopK(k)
	// Global survivor cut by approximate score (ids are unique across
	// ranges, so Better's tie-break makes this a total order): a bounded
	// top-m selection keeps exactly the set a full sort-and-truncate
	// would, without paying an O(N log N) comparison sort per query on the
	// serving path. A window that covers every survivor cuts nothing.
	var keep map[int]struct{}
	if m := rerankBudget(k, mult, nQuant); m < nQuant {
		cut := core.GetTopK(m)
		for _, p := range parts {
			for _, c := range p.quant {
				cut.Offer(c.id, c.approx)
			}
		}
		keep = make(map[int]struct{}, m)
		for _, s := range cut.Take() {
			keep[s.ID] = struct{}{}
		}
		core.PutTopK(cut)
	}
	for _, p := range parts {
		for _, c := range p.quant {
			if _, ok := keep[c.id]; ok || keep == nil {
				final.Offer(c.id, c.exact)
			}
		}
		for _, s := range p.plain {
			final.Offer(s.ID, s.Score)
		}
	}
	res := final.Take()
	core.PutTopK(final)
	return res
}

// SearchSharded answers one top-k query over subs — per-shard indexes
// with disjoint global id ranges (see Shift) — as the one-query
// SearchBatch. k and opt apply to every shard unchanged; nil entries in
// subs are skipped (a shard with no candidates in this id space). The
// merged ranking equals a single index over the concatenated candidates:
// exact stays exact, full-probe IVF stays bit-for-bit equal to exact, and
// a quantized backend returns exactly its unsharded answer, at any shard
// count.
func SearchSharded(subs []Index, q []float64, k int, opt Options) []core.Scored {
	res, _, _ := SearchShardedTimed(subs, q, k, opt)
	return res
}

// SearchShardedTimed is SearchSharded plus per-stage wall times: the
// fan-out duration (the parallel row scans, the wait for the slowest
// included) and the merge duration (mergePartials). Every Index this
// package hands out is a *Table, and subs must be.
func SearchShardedTimed(subs []Index, q []float64, k int, opt Options) (res []core.Scored, fanout, merge time.Duration) {
	tables := make([]*Table, 0, len(subs))
	for _, s := range subs {
		if s != nil {
			tables = append(tables, s.(*Table))
		}
	}
	var out [1][]core.Scored
	st := SearchBatch(tables, []BatchQuery{{Q: q, K: k, Opt: opt}}, out[:])
	return out[0], st.Fanout, st.Merge
}
