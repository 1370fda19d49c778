package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"pane/internal/core"
	"pane/internal/index"
)

// Batch query execution: N heterogeneous queries evaluated against ONE
// model version. Under live updates this matters — issuing the same
// queries one at a time could straddle a version swap and mix scores from
// two embeddings; a batch never does. Top-k queries in a batch route
// through the same per-version sharded index as the single-query
// endpoints, and each result reports the backend that answered it.
//
// Execution is tile-major: the batch validates and prepares all its top-k
// searches up front, groups them by the index cell that answers them, and
// hands each group to index.SearchBatch, which walks every shard's rows
// once — in cache-sized tiles, by row range across shards × threads — and
// scores every member of the group against a tile while it is resident.
// The candidate rows are read once per batch; a member keeps its own
// vector, skip, probe and accumulators, every (member, row) score comes
// from the same dot kernel in the same summation order as a single query
// (which is why the batch is not routed through the GEMM, whose order
// differs), and top-k under core.Better does not depend on how rows were
// grouped — so a batch member's answer is bit-for-bit the answer the
// query gets alone.

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
// scanned together (see the comment above).
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
// per query. Entries travel as *[]float64 so a round trip allocates
// nothing, and a vector too short for this engine's embedding width is
// regrown in place rather than dropped (engines of different widths may
// share the process).
var vecPool = sync.Pool{New: func() interface{} { return new([]float64) }}

func getVec(n int) *[]float64 {
	p := vecPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putVec(p *[]float64) { vecPool.Put(p) }

// preparedTopK is one validated top-k search of a batch: the result slot
// it fills, the cell of the index grid that answers it, and the search
// itself. vec is the pooled vector behind an attribute query, returned
// once the search has run.
type preparedTopK struct {
	resIdx int
	cell   cell
	vec    *[]float64
	index.BatchQuery
}

func (m *Model) execute(qs []Query, shards *cut, met *engineMetrics) []Result {
	out := make([]Result, len(qs))
	var prep []preparedTopK
	if shards != nil {
		n := 0
		for i := range qs {
			if qs[i].Op == OpTopAttrs || qs[i].Op == OpTopLinks {
				n++
			}
		}
		prep = make([]preparedTopK, 0, n)
	}
	for i, q := range qs {
		out[i] = m.run(q, shards, met, i, &prep)
	}
	if len(prep) > 0 {
		runPrepared(prep, shards, out, met)
	}
	return out
}

// runPrepared answers the batch's prepared top-k searches cell by cell:
// the members one cell answers go to index.SearchBatch together, which
// walks every shard's rows once for all of them (see internal/index
// scan.go). Members keep batch order within a cell and land in their own
// result slots, so the grouping is invisible in the output.
func runPrepared(prep []preparedTopK, shards *cut, out []Result, met *engineMetrics) {
	t0 := time.Now()
	slices.SortStableFunc(prep, func(a, b preparedTopK) int { return a.cell.order() - b.cell.order() })
	group := make([]index.BatchQuery, 0, len(prep))
	tops := make([][]core.Scored, len(prep))
	for lo := 0; lo < len(prep); lo += len(group) {
		c := prep[lo].cell
		group = group[:0]
		for _, p := range prep[lo:] {
			if p.cell != c {
				break
			}
			group = append(group, p.BatchQuery)
		}
		met.recordWork(c, index.SearchBatch(c.tables(shards), group, tops[lo:]))
	}
	for i, p := range prep {
		out[p.resIdx].Top = tops[i]
		if p.vec != nil {
			putVec(p.vec)
		}
	}
	met.recordBatch(len(prep), time.Since(t0))
}

// run evaluates one query. Scalar ops are answered inline; top-k ops with
// a fresh shard set are validated, appended to prep for the batch scan,
// and have their Backend set immediately (runPrepared later fills Top).
// Without shards, top-k ops scan inline.
func (m *Model) run(q Query, shards *cut, met *engineMetrics, resIdx int, prep *[]preparedTopK) Result {
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
		p := preparedTopK{resIdx: resIdx}
		p.K, p.Opt.NProbe = k, q.NProbe
		if q.Op == OpTopAttrs {
			if !inRange(q.Node, m.Nodes()) {
				return fail("engine: node %d out of range [0,%d)", q.Node, m.Nodes())
			}
			p.vec = getVec(m.Emb.Xf.Cols)
			p.Q = m.Emb.AttrQueryInto(q.Node, *p.vec)
			p.cell = pick(shards, attrSpace, mode)
		} else {
			if !inRange(q.Src, m.Nodes()) {
				return fail("engine: src %d out of range [0,%d)", q.Src, m.Nodes())
			}
			u := q.Src
			p.Q = m.Emb.Xf.Row(u)
			p.Opt.Skip = func(id int) bool { return id == u }
			p.cell = pick(shards, linkSpace, mode)
		}
		res.Backend = p.cell.backend()
		*prep = append(*prep, p)
	default:
		return fail("unknown op %q", q.Op)
	}
	return res
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
