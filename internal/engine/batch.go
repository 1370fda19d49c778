package engine

import (
	"fmt"
	"sync"

	"pane/internal/core"
	"pane/internal/index"
	"pane/internal/obs"
)

// Batch query execution: N heterogeneous queries evaluated against ONE
// model version. Under live updates this matters — issuing the same
// queries one at a time could straddle a version swap and mix scores from
// two embeddings; a batch never does. Top-k queries in a batch route
// through the same per-version sharded index as the single-query
// endpoints, and each result reports the backend that answered it.
//
// Dispatch is shard-first: instead of fanning each top-k query out to
// every shard (queries × shards goroutines, one dispatch per pair), the
// batch prepares all its top-k searches up front and runs one worker per
// shard that scans every prepared query against that shard's index. The
// per-query partial results are then merged under core.TopK, which is
// order-independent for unique ids — so the batch answers are bit-for-bit
// identical to issuing the queries one at a time, with S dispatches
// instead of queries × S.

// Query ops understood by Execute.
const (
	OpAttrScore = "attr-score" // Eq. 21 affinity of (Node, Attr)
	OpLinkScore = "link-score" // Eq. 22 plausibility of Src → Dst
	OpTopAttrs  = "top-attrs"  // K strongest attributes for Node
	OpTopLinks  = "top-links"  // K most plausible out-neighbors of Src
)

// DefaultK is the top-k result count when a query leaves K unset.
const DefaultK = 10

// Query is one element of a batch. Only the fields relevant to Op are
// read.
type Query struct {
	Op   string `json:"op"`
	Node int    `json:"node"`
	Attr int    `json:"attr"`
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
	// K is the result count for top-k ops: omitted defaults to DefaultK
	// and is clamped to the candidate count, but an explicit value < 1
	// fails the query rather than being silently rewritten.
	K *int `json:"k,omitempty"`
	// Mode selects the top-k backend: ModeExact (default when empty),
	// ModeIVF, the quantized tiers ModeSQ8 / ModeIVFSQ, or the
	// half-precision tiers ModeFP16 / ModeIVFFP16.
	Mode string `json:"mode,omitempty"`
	// NProbe overrides the IVF probe count for this query; 0 keeps the
	// index default.
	NProbe int `json:"nprobe,omitempty"`
}

// Result is the outcome of one query. Exactly one of the value fields is
// set on success; Err is set (and the others empty) on a per-query
// failure, so one bad query never fails its batch.
type Result struct {
	Op         string        `json:"op"`
	Score      *float64      `json:"score,omitempty"`
	Undirected *float64      `json:"undirected,omitempty"`
	Top        []core.Scored `json:"top,omitempty"`
	// Backend reports which path answered a top-k op: BackendExact,
	// BackendIVF, BackendSQ8, BackendIVFSQ, BackendFP16, BackendIVFFP16,
	// or BackendScan (brute force; no fresh index).
	Backend string `json:"backend,omitempty"`
	Err     string `json:"error,omitempty"`
}

// Execute evaluates a batch of heterogeneous queries against an Engine's
// current model — resolving the model and one consistent shard set once,
// so the whole batch is answered at one version — and reports that
// version. With a fresh sharded index the batch's top-k queries are
// dispatched shard-first (see the package comment above).
func (e *Engine) Execute(qs []Query) ([]Result, uint64) {
	m := e.Model()
	shards := e.freshShards(m)
	return m.execute(qs, shards, e.met), m.Version
}

// Execute evaluates the batch against this specific model version. Top-k
// queries take the brute-force scan path; use Engine.Execute for indexed
// batches.
func (m *Model) Execute(qs []Query) []Result { return m.execute(qs, nil, nil) }

// vecPool recycles per-query float64 scratch (the AttrQueryInto targets):
// a batch of attribute top-k queries would otherwise allocate one vector
// per query. Entries are pooled by capacity check, since engines with
// different embedding widths may share the process.
var vecPool sync.Pool

func getVec(n int) []float64 {
	if p, _ := vecPool.Get().(*[]float64); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

func putVec(v []float64) { vecPool.Put(&v) }

// preparedTopK is one validated top-k search of a batch, ready to run
// against any shard: the query vector, the global-id skip, the resolved
// quantized re-rank multiplier, and the per-shard sub-index selection.
type preparedTopK struct {
	resIdx  int // index of the result slot to fill after the merge
	q       []float64
	qPooled bool // q came from vecPool and is returned after the merge
	k       int
	mult    int
	opt     index.Options
	subs    []index.Index
}

func (m *Model) execute(qs []Query, shards []*shardIdx, met *engineMetrics) []Result {
	out := make([]Result, len(qs))
	var prep []preparedTopK
	for i, q := range qs {
		out[i] = m.run(q, shards, met, i, &prep)
	}
	if len(prep) > 0 {
		runShardFirst(prep, len(shards), out, met)
	}
	return out
}

// runShardFirst executes the batch's prepared top-k searches with one
// worker per shard, then merges each query's per-shard partials into its
// result slot. The merge goes through index.MergePartials — the same
// two-phase survivor cut the single-query fan-out uses — so a quantized
// batch answer is bit-for-bit what the query would get issued alone.
func runShardFirst(prep []preparedTopK, nShards int, out []Result, met *engineMetrics) {
	// partials[p][s] is query p's contribution from shard s.
	partials := make([][]index.Partial, len(prep))
	for p := range partials {
		partials[p] = make([]index.Partial, nShards)
	}
	fanSp := obs.StartSpan(met.fanoutHist())
	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for p, pq := range prep {
				if sub := pq.subs[s]; sub != nil {
					partials[p][s] = index.PartialSearch(sub, pq.q, pq.k, pq.mult, pq.opt)
				}
			}
		}(s)
	}
	wg.Wait()
	fanSp.End()
	mergeSp := obs.StartSpan(met.mergeHist())
	for p, pq := range prep {
		out[pq.resIdx].Top = index.MergePartials(partials[p], pq.k, pq.mult)
		if pq.qPooled {
			putVec(pq.q)
		}
	}
	mergeSp.End()
}

// run evaluates one query. Scalar ops are answered inline; top-k ops with
// a fresh shard set are validated, appended to prep for the shard-first
// pass, and have their Backend set immediately (the merge later fills
// Top). Without shards, top-k ops scan inline.
func (m *Model) run(q Query, shards []*shardIdx, met *engineMetrics, resIdx int, prep *[]preparedTopK) Result {
	res := Result{Op: q.Op}
	fail := func(format string, args ...interface{}) Result {
		res.Err = fmt.Sprintf(format, args...)
		return res
	}
	inRange := func(v, limit int) bool { return v >= 0 && v < limit }
	switch q.Op {
	case OpAttrScore:
		if !inRange(q.Node, m.Nodes()) {
			return fail("node %d out of range [0,%d)", q.Node, m.Nodes())
		}
		if !inRange(q.Attr, m.Attrs()) {
			return fail("attr %d out of range [0,%d)", q.Attr, m.Attrs())
		}
		s := m.Emb.AttrScore(q.Node, q.Attr)
		res.Score = &s
	case OpLinkScore:
		if !inRange(q.Src, m.Nodes()) {
			return fail("src %d out of range [0,%d)", q.Src, m.Nodes())
		}
		if !inRange(q.Dst, m.Nodes()) {
			return fail("dst %d out of range [0,%d)", q.Dst, m.Nodes())
		}
		s := m.Scorer.Directed(q.Src, q.Dst)
		u := m.Scorer.Undirected(q.Src, q.Dst)
		res.Score = &s
		res.Undirected = &u
	case OpTopAttrs, OpTopLinks:
		k, err := batchK(q.K)
		if err != nil {
			return fail("%v", err)
		}
		if shards == nil {
			var top []core.Scored
			var backend string
			if q.Op == OpTopAttrs {
				top, backend, err = m.topAttrs(nil, met, q.Node, k, q.Mode, q.NProbe)
			} else {
				top, backend, err = m.topLinks(nil, met, q.Src, k, q.Mode, q.NProbe)
			}
			if err != nil {
				return fail("%v", err)
			}
			res.Top, res.Backend = top, backend
			return res
		}
		mode, err := validateTopK(k, q.Mode, q.NProbe)
		if err != nil {
			return fail("%v", err)
		}
		p := preparedTopK{resIdx: resIdx, k: k, opt: index.Options{NProbe: q.NProbe}}
		if q.Op == OpTopAttrs {
			if !inRange(q.Node, m.Nodes()) {
				return fail("engine: node %d out of range [0,%d)", q.Node, m.Nodes())
			}
			p.q = m.Emb.AttrQueryInto(q.Node, getVec(m.Emb.Xf.Cols))
			p.qPooled = true
			p.subs, res.Backend = pick(shards, attrSpace, mode)
		} else {
			if !inRange(q.Src, m.Nodes()) {
				return fail("engine: src %d out of range [0,%d)", q.Src, m.Nodes())
			}
			u := q.Src
			p.q = m.Emb.Xf.Row(u)
			p.opt.Skip = func(id int) bool { return id == u }
			p.subs, res.Backend = pick(shards, linkSpace, mode)
		}
		p.mult = preparedMult(p.subs)
		*prep = append(*prep, p)
	default:
		return fail("unknown op %q", q.Op)
	}
	return res
}

// preparedMult resolves the quantized re-rank multiplier for a prepared
// search against the first live shard (the engine builds every shard with
// the same configuration, so any shard answers for all).
func preparedMult(subs []index.Index) int {
	for _, sub := range subs {
		if sub != nil {
			return index.RerankMult(sub)
		}
	}
	return 1
}

// batchK resolves a batch query's K: nil means DefaultK, and an explicit
// value below 1 is an error — never a silent rewrite.
func batchK(k *int) (int, error) {
	if k == nil {
		return DefaultK, nil
	}
	if *k < 1 {
		return 0, fmt.Errorf("k must be >= 1, got %d", *k)
	}
	return *k, nil
}
