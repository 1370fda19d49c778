package index

import (
	"sync"
	"time"

	"pane/internal/core"
)

// Sharded serving: a large candidate matrix is split into contiguous row
// shards, each indexed independently (any cell of the layout × codec
// grid), and a query fans out across the shards in parallel, merging the
// per-shard results under core.Better. Because candidate ids are
// globally unique and Better is a total order, the merged top-k of exact
// backends is the unique global top-k — bit-for-bit independent of the
// shard count (and likewise for IVF probing every list).
//
// A codec whose scores are approximate needs one extra move to keep that
// guarantee: the survivor CUT must happen globally, not per shard. A
// shard's quantized scan returns its rerank*k best candidates by
// approximate score (PartialSearch), the merge selects the global
// rerank*k best of those (approximate scores are shard-invariant because
// quantization is per row), and only then does the exact re-rank pick the
// final k (MergePartials). Cutting per shard instead would re-rank a
// shard-count-dependent survivor set and let the answer drift with S.
// The pieces here are the per-shard search (PartialSearch), the
// deterministic merge (MergePartials), and the fan-out driver
// (SearchSharded); Shift gives each shard its global id range, and
// internal/engine owns shard lifecycle and per-shard rebuilds.

// Partial is one shard's contribution to a fanned-out top-k search:
// final-scored results for a plain backend, or the approximate survivor
// set (exact scores attached) for a quantized one. Values are produced by
// PartialSearch and consumed by MergePartials; the zero value is an empty
// contribution.
type Partial struct {
	plain []core.Scored
	quant []approxScored
}

// approximate returns sub as a table whose codec's scores need the exact
// re-rank, or nil.
func approximate(sub Index) *Table {
	if t, ok := sub.(*Table); ok && !codecs[t.codec].final() {
		return t
	}
	return nil
}

// RerankMult resolves the survivor multiplier a fan-out over sub uses:
// sub's build-time value when its scores are approximate, else 1 (final
// scores re-rank nothing). Callers fanning out over several shards
// resolve it once — against any shard, since the engine builds every
// shard with the same configuration — and pass the same value to
// MergePartials.
func RerankMult(sub Index) int {
	if t := approximate(sub); t != nil {
		return t.rerank
	}
	return 1
}

// PartialSearch runs one shard's share of a top-k query. Plain backends
// answer with their final top-k; quantized backends return their
// mult*k-candidate survivor set so the global cut can happen in
// MergePartials.
func PartialSearch(sub Index, q []float64, k, mult int, opt Options) Partial {
	if t := approximate(sub); t != nil {
		return Partial{quant: t.survivors(q, rerankBudget(k, mult, t.Len()), opt)}
	}
	return Partial{plain: sub.Search(q, k, opt)}
}

// MergePartials merges per-shard contributions into the final top-k.
// Plain parts merge directly under core.Better. Quantized parts first
// pass the GLOBAL survivor cut — the mult*k best by approximate score
// across all shards, the same cut an unsharded quantized search applies —
// and then compete on their exact scores, so sharded quantized answers
// are bit-for-bit identical to unsharded ones. mult must match the value
// PartialSearch ran with (see RerankMult).
func MergePartials(parts []Partial, k, mult int) []core.Scored {
	nQuant := 0
	for _, p := range parts {
		nQuant += len(p.quant)
	}
	final := core.GetTopK(k)
	if nQuant > 0 {
		// Global survivor cut by approximate score (ids are unique across
		// shards, so Better's tie-break makes this a total order): a
		// bounded top-m selection keeps exactly the set a full
		// sort-and-truncate would, without paying an O(N log N) comparison
		// sort per query on the serving path.
		m := rerankBudget(k, mult, nQuant)
		cut := core.GetTopK(m)
		for _, p := range parts {
			for _, c := range p.quant {
				cut.Offer(c.id, c.approx)
			}
		}
		keep := make(map[int]struct{}, cut.Len())
		for _, s := range cut.Take() {
			keep[s.ID] = struct{}{}
		}
		core.PutTopK(cut)
		for _, p := range parts {
			for _, c := range p.quant {
				if _, ok := keep[c.id]; ok {
					final.Offer(c.id, c.exact)
				}
			}
		}
	}
	for _, p := range parts {
		for _, s := range p.plain {
			final.Offer(s.ID, s.Score)
		}
	}
	res := final.Take()
	core.PutTopK(final)
	return res
}

// SearchSharded answers one top-k query by parallel fan-out over subs —
// per-shard indexes with disjoint global id ranges (see Shift) — merging
// the per-shard partial results through MergePartials. k and opt are
// passed to every shard unchanged; nil entries in subs are skipped (a
// shard with no candidates in this id space). The merged ranking equals a
// single index over the concatenated candidates: exact stays exact,
// full-probe IVF stays bit-for-bit equal to exact, and a quantized
// backend returns exactly its unsharded answer, at any shard count.
func SearchSharded(subs []Index, q []float64, k int, opt Options) []core.Scored {
	res, _, _ := SearchShardedTimed(subs, q, k, opt)
	return res
}

// SearchShardedTimed is SearchSharded plus per-stage wall times: the
// fan-out duration (the parallel per-shard searches, wg.Wait included)
// and the merge duration (MergePartials). A single live shard answers
// directly — its search time reports as the fan-out stage and the merge
// is zero, matching what actually ran.
func SearchShardedTimed(subs []Index, q []float64, k int, opt Options) (res []core.Scored, fanout, merge time.Duration) {
	live := subs[:0:0]
	for _, s := range subs {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil, 0, 0
	}
	t0 := time.Now()
	if len(live) == 1 {
		res = live[0].Search(q, k, opt)
		return res, time.Since(t0), 0
	}
	mult := RerankMult(live[0])
	parts := make([]Partial, len(live))
	var wg sync.WaitGroup
	for i, s := range live {
		wg.Add(1)
		go func(i int, s Index) {
			defer wg.Done()
			parts[i] = PartialSearch(s, q, k, mult, opt)
		}(i, s)
	}
	wg.Wait()
	fanout = time.Since(t0)
	t1 := time.Now()
	res = MergePartials(parts, k, mult)
	return res, fanout, time.Since(t1)
}
