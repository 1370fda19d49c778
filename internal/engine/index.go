package engine

// Sharded per-version top-k index lifecycle. An Engine with indexing
// enabled partitions the candidate matrices — Z = Xb·G for links (n
// rows), Y for attributes (d rows) — into S contiguous row shards. Each
// shard owns an exact backend (and optionally IVF and the SQ8/IVFSQ
// quantized tiers) over its block only, published through its own atomic
// pointer and rebuilt by its own worker goroutine: after an update, S
// independent, smaller rebuilds overlap instead of one O(n) blocking
// build. All of a shard's enabled representations are built before the
// shard publishes, so the tiers can never serve mixed versions.
//
// A query resolves the model first, then accepts the shard set only if
// EVERY shard's published index matches that model version exactly — a
// consistent cut. Anything else (disabled, some shard still building, or
// built for a different generation) falls back to the model's brute-force
// scan path, so a query never mixes shards from two generations and is
// never answered by a stale index: between an update landing and the last
// shard publishing, queries degrade to the scan (reported as backend
// "scan") but keep answering at the current model version. Accepted
// queries fan out across the shards in parallel and merge through
// core.TopK, which keeps sharded exact answers bit-for-bit identical to
// single-shard exact.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pane/internal/core"
	"pane/internal/index"
	"pane/internal/mat"
	"pane/internal/obs"
	"pane/internal/store"
)

// Query modes accepted by the top-k paths.
const (
	ModeExact   = "exact"   // exact answer: indexed scan, or brute force mid-rebuild
	ModeIVF     = "ivf"     // approximate answer from the IVF backend when fresh
	ModeSQ8     = "sq8"     // quantized flat scan + exact re-rank
	ModeIVFSQ   = "ivfsq"   // quantized inverted-file scan + exact re-rank
	ModeFP16    = "fp16"    // half-precision flat scan, no re-rank
	ModeIVFFP16 = "ivffp16" // half-precision inverted-file scan, no re-rank
)

// Backend labels reported with every top-k answer.
const (
	BackendExact   = "exact"   // precomputed candidate matrix, parallel blocked scan
	BackendIVF     = "ivf"     // inverted-file approximate search
	BackendSQ8     = "sq8"     // int8 quantized scan, exact re-rank
	BackendIVFSQ   = "ivfsq"   // quantized inverted-file scan, exact re-rank
	BackendFP16    = "fp16"    // binary16 flat scan, no re-rank
	BackendIVFFP16 = "ivffp16" // binary16 inverted-file scan, no re-rank
	BackendScan    = "scan"    // per-query brute force; no fresh index (disabled or mid-rebuild)
)

// IndexConfig selects and tunes the per-version indexes an Engine
// maintains. The zero value enables the exact backend only, unsharded;
// defaults are resolved against the model at build time.
type IndexConfig struct {
	// IVF additionally builds the approximate backend.
	IVF bool
	// Quantize additionally builds the SQ8 quantized tier: an int8 copy
	// of each shard's candidate rows scanned at ~1/8 the memory traffic,
	// re-ranked exactly. With IVF also set, the per-list IVFSQ variant is
	// built alongside (sharing the IVF's k-means, so it costs one extra
	// quantization pass, not a second clustering).
	Quantize bool
	// Rerank is the quantized survivor multiplier: an SQ8/IVFSQ query
	// re-ranks the Rerank*k best quantized scores exactly. 0 means
	// index.DefaultRerank.
	Rerank int
	// FP16 additionally builds the half-precision tier: a binary16 copy
	// of each shard's candidate rows scanned at half the memory traffic
	// of float64, served WITHOUT exact re-rank (11-bit significands keep
	// recall@10 at ≈ 0.999 on embedding workloads). With IVF also set,
	// the per-list IVFFP16 variant is built alongside, sharing the IVF's
	// k-means like IVFSQ does.
	FP16 bool
	// NList is the IVF coarse cluster count per shard; 0 means
	// ~sqrt(shard rows).
	NList int
	// NProbe is the default number of IVF lists probed per query in each
	// shard; 0 means max(1, nlist/8). Queries can override it per request.
	NProbe int
	// Threads is the index build/search parallelism; 0 follows the model
	// config's Threads. Builds divide it across concurrently rebuilding
	// shards.
	Threads int
	// Seed drives k-means determinism; 0 follows the model config's Seed.
	Seed int64
	// Shards is the number of contiguous row shards the candidate
	// matrices are split into; values <= 1 mean one shard, and values
	// above the row count are clamped. Each shard rebuilds independently
	// and queries fan out across all of them.
	Shards int
}

// validate rejects nonsensical index configurations at engine
// construction with a descriptive error — misconfiguration used to be
// silently clamped at scattered build sites, which hid operator typos
// until query time. rows is the candidate (node) row count the shard
// layout will partition. Zero values keep their documented "use the
// default" meaning throughout.
func (c *IndexConfig) validate(rows int) error {
	if c.Shards < 0 {
		return fmt.Errorf("engine: shard count must be >= 1, got %d", c.Shards)
	}
	if rows > 0 && c.Shards > rows {
		return fmt.Errorf("engine: shard count %d exceeds the %d candidate rows (each shard needs at least one row)",
			c.Shards, rows)
	}
	if c.Rerank < 0 {
		return fmt.Errorf("engine: rerank must be >= 1, got %d (0 selects the default, %d)",
			c.Rerank, index.DefaultRerank)
	}
	if c.NList < 0 {
		return fmt.Errorf("engine: nlist must be >= 1, got %d (0 selects ~sqrt(shard rows))", c.NList)
	}
	if c.NProbe < 0 {
		return fmt.Errorf("engine: nprobe must be >= 1, got %d (0 selects nlist/8)", c.NProbe)
	}
	if c.Threads < 0 {
		return fmt.Errorf("engine: index threads must be >= 1, got %d (0 follows the model config)", c.Threads)
	}
	return nil
}

// WithIndex enables per-version top-k indexing with the given config.
func WithIndex(cfg IndexConfig) Option {
	return func(e *Engine) {
		c := cfg
		e.idxCfg = &c
	}
}

// WithoutIndex disables indexing even if a restored bundle carries an
// index configuration (engine.Open applies bundle settings first, then
// caller options).
func WithoutIndex() Option {
	return func(e *Engine) { e.idxCfg = nil }
}

// WithFallbackIndex enables indexing with cfg only when no configuration
// was set earlier in the option list — notably when a restored bundle
// did not record one. It lets a server default to indexed serving while
// still honoring explicit bundle or caller settings.
func WithFallbackIndex(cfg IndexConfig) Option {
	return func(e *Engine) {
		if e.idxCfg == nil {
			c := cfg
			e.idxCfg = &c
		}
	}
}

// WithShards overrides the shard count of whatever index configuration
// is in effect at this point in the option list — typically one restored
// from a bundle — without touching its other settings. An explicit count
// below 1 is a construction error (a config literal's zero Shards still
// means "one shard"); counts above the row count fail validation at
// construction. No-op when indexing is disabled.
func WithShards(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			e.fail(fmt.Errorf("engine: WithShards requires a shard count >= 1, got %d", n))
			return
		}
		if e.idxCfg != nil {
			e.idxCfg.Shards = n
		}
	}
}

// WithManualIndexRebuild turns off the automatic asynchronous rebuild
// after updates; callers invoke RebuildIndex themselves. Tests use this
// to pin the "update applied, index not yet republished" state
// deterministically.
func WithManualIndexRebuild() Option {
	return func(e *Engine) { e.idxManual = true }
}

// The candidate spaces a shard indexes.
const (
	linkSpace = iota // Z = Xb·G, one row per node; queried with Xf[u]
	attrSpace        // Y, one row per attribute; queried with Xf[v]+Xb[v]
	nSpaces
)

// The layout axis of the index grid; the codec axis is index.Codec.
const (
	flat = iota
	inverted
	nLayouts
)

// cells is one space's part of a shard generation: the index grid, nil
// where the configuration builds no cell. A layout's float64 cell is
// built whenever any cell of that layout is. All ids a cell returns are
// global (see index.Shift).
type cells [nLayouts][index.NumCodecs]*index.Table

// shardIdx is one shard's immutable index generation, valid for exactly
// one model version. Every enabled cell is built BEFORE the shardIdx is
// published through its slot, so a query can never observe a shard whose
// exact cell is at one version and whose quantized cell is at another. A
// generation produced by incremental refresh shares with its predecessor
// every 16-row page of the candidate block and of each flat cell's codes
// that no dirty row is on, and every inverted list no dirty row left or
// joined; a shard with no dirty rows shares everything and republishing it
// is O(1).
type shardIdx struct {
	version uint64
	z       *mat.Paged // this shard's block of Z = Xb·G, on the pages the flat link cells hold
	spaces  [nSpaces]cells
}

// cut is one consistent set of shard generations — every shard at the
// same model version — with each cell's per-shard tables laid out for
// index.SearchBatch, assembled once by the publish that completes it.
type cut struct {
	version uint64
	shards  []*shardIdx
	tables  [nSpaces][nLayouts][index.NumCodecs][]*index.Table
}

// shardPending is one shard's accumulated rebuild obligation: the model
// version the delta reaches (0 = nothing pending) and, per space, the
// dirty rows — coalesced across every update since the shard last
// published — that carry the published index to it. full poisons a space
// into a full rebuild (full-sweep model updates; any Y movement for the
// link space, since G = YᵀY shifts every candidate row).
type shardPending struct {
	target uint64
	full   [nSpaces]bool
	dirty  [nSpaces]map[int]struct{} // global row ids inside this shard's range
	// grams are the accumulated low-rank link-space corrections of the
	// attribute deltas since the shard last published, oldest first. Each
	// is additive on every row whose Xb row did not change, and rows that
	// did change are in dirty[linkSpace] and get recomputed exactly — so
	// applying them all against the current model's Xb is
	// order-independent and reproduces the pending Z shift without a full
	// transform. Ignored when the link space is poisoned (the rebuild
	// recomputes Z anyway).
	grams []*core.GramDelta
}

// idxDelta is one published update's dirty-row report, handed from apply
// to the shard scheduler, which splits it across the per-shard pendings.
type idxDelta struct {
	target uint64
	full   [nSpaces]bool
	dirty  [nSpaces][]int
	gram   *core.GramDelta // low-rank Z correction of an attr delta
	rows   int             // total dirty rows, for monitoring
	at     time.Time       // when the model was published
}

// shardSet is the sharded serving-index state of one Engine: the fixed
// shard layout (node and attribute universes are fixed at training time,
// so the ranges never change), one published-index slot per shard, and
// the per-shard rebuild scheduling state.
type shardSet struct {
	// ranges[sp] are the contiguous row ranges of space sp, one per
	// shard; the attribute space may span fewer shards than the link
	// space.
	ranges [nSpaces][][2]int
	slots  []atomic.Pointer[shardIdx]
	cut    atomic.Pointer[cut] // the newest complete cut of slots; versions only rise
	// published is the newest model publish the index was told of; until
	// a cut at its version exists, top-k reads fall back to the scan.
	published atomic.Pointer[idxDelta]

	// Per-shard async rebuild scheduling, all under mu: at most one
	// worker goroutine runs per shard (running[s]); updates merge their
	// dirty rows into pending[s] instead of spawning, and a worker loops
	// until it exits with its pending empty — so every published version
	// is either seen by the running worker's next loop or triggers a
	// fresh worker, and a sustained update stream never piles up
	// goroutines (it collapses into one coalesced delta build per shard).
	// WaitForIndex waits on idleC for every shard to drain. buildMu
	// serializes the builds of one shard (worker vs. manual RebuildIndex)
	// without ever blocking other shards.
	mu      sync.Mutex
	idleC   *sync.Cond
	pending []shardPending
	running []bool
	buildMu []sync.Mutex
}

// newShardSet lays out s shards over n candidate rows and d attribute
// rows. SplitRanges clamps: more shards than rows collapses to one shard
// per row, and the attribute space may span fewer shards than the link
// space when d < n.
func newShardSet(n, d, s int) *shardSet {
	if s < 1 {
		s = 1
	}
	linkRanges := mat.SplitRanges(n, s)
	if len(linkRanges) == 0 { // n == 0: keep one empty shard so slots exist
		linkRanges = [][2]int{{0, 0}}
	}
	ss := &shardSet{
		slots:   make([]atomic.Pointer[shardIdx], len(linkRanges)),
		pending: make([]shardPending, len(linkRanges)),
		running: make([]bool, len(linkRanges)),
		buildMu: make([]sync.Mutex, len(linkRanges)),
	}
	ss.ranges[linkSpace] = linkRanges
	ss.ranges[attrSpace] = mat.SplitRanges(d, len(linkRanges))
	ss.idleC = sync.NewCond(&ss.mu)
	return ss
}

// shardOf maps a global row of space sp to the shard holding it.
// SplitRanges uses equal ceil(n/S)-sized chunks (the last possibly
// shorter), so this is a division, not a search.
func (ss *shardSet) shardOf(sp, r int) int {
	first := ss.ranges[sp][0]
	return r / (first[1] - first[0])
}

// markLocked merges one update's delta into every shard's pending
// obligation. Every shard's target advances — a shard with no dirty rows
// still republishes (an O(1) storage-sharing republish) so the consistent
// cut reaches the new version. Callers hold mu.
func (ss *shardSet) markLocked(d idxDelta) {
	for s := range ss.pending {
		p := &ss.pending[s]
		p.target = d.target
		for sp := range p.full {
			p.full[sp] = p.full[sp] || d.full[sp]
		}
		if d.gram != nil {
			p.grams = append(p.grams, d.gram)
		}
	}
	for sp := range d.dirty {
		if d.full[sp] || len(ss.ranges[sp]) == 0 {
			continue
		}
		for _, r := range d.dirty[sp] {
			p := &ss.pending[ss.shardOf(sp, r)]
			if p.dirty[sp] == nil {
				p.dirty[sp] = make(map[int]struct{})
			}
			p.dirty[sp][r] = struct{}{}
		}
	}
}

// remergeLocked returns a taken-but-unbuilt pending to shard s, unioning
// it with whatever accumulated meanwhile. Callers hold mu.
func (ss *shardSet) remergeLocked(s int, p shardPending) {
	cur := &ss.pending[s]
	if p.target > cur.target {
		cur.target = p.target
	}
	for sp := range cur.full {
		cur.full[sp] = cur.full[sp] || p.full[sp]
		cur.dirty[sp] = unionRows(cur.dirty[sp], p.dirty[sp])
	}
	if len(p.grams) > 0 {
		// p's corrections predate whatever accumulated meanwhile.
		cur.grams = append(append([]*core.GramDelta(nil), p.grams...), cur.grams...)
	}
}

func unionRows(dst, src map[int]struct{}) map[int]struct{} {
	if dst == nil {
		return src
	}
	for r := range src {
		dst[r] = struct{}{}
	}
	return dst
}

// sortedRowsIn extracts the rows of set inside [lo, hi), ascending —
// the shape the index Refresh constructors take.
func sortedRowsIn(set map[int]struct{}, lo, hi int) []int {
	var out []int
	for r := range set {
		if r >= lo && r < hi {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

// buildParams resolves the per-shard build knobs against the model config
// once per build cycle.
type buildParams struct {
	cfg     IndexConfig
	threads int
	ivfCfg  index.IVFConfig
}

func (e *Engine) shardBuildParams(m *Model) buildParams {
	cfg := *e.idxCfg
	threads := cfg.Threads
	if threads <= 0 {
		threads = m.Cfg.Threads
	}
	// Divide build parallelism across shards: their rebuilds overlap, so
	// each gets a slice of the budget rather than all of it.
	threads /= len(e.shards.slots)
	if threads < 1 {
		threads = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = m.Cfg.Seed
	}
	return buildParams{
		cfg:     cfg,
		threads: threads,
		ivfCfg: index.IVFConfig{
			NList: cfg.NList, NProbe: cfg.NProbe,
			Seed: seed, Threads: threads,
		},
	}
}

// buildShardIdx materializes shard s's indexes for m from scratch. Only
// the shard's own block of Z is computed, which is what makes S rebuilds
// S-times smaller than one monolithic build.
func (e *Engine) buildShardIdx(m *Model, s int) *shardIdx {
	bp := e.shardBuildParams(m)
	si := &shardIdx{version: m.Version}
	for sp := range si.spaces {
		e.buildSpace(si, sp, m, s, bp)
	}
	return si
}

// buildSpace fills si's cells of space sp with a full build over the
// shard's candidate rows: its freshly computed block of Z, or its block
// of Y (a view of the model's matrix, not a copy). One BuildIVF serves
// every inverted cell, so three codecs cost one k-means and one copy of
// the lists. No-op for a shard holding no rows of the space.
func (e *Engine) buildSpace(si *shardIdx, sp int, m *Model, s int, bp buildParams) {
	ranges := e.shards.ranges[sp]
	if s >= len(ranges) {
		return
	}
	lo, hi := ranges[s][0], ranges[s][1]
	var rows *mat.Dense
	if sp == linkSpace {
		rows = m.Scorer.TransformedCandidatesRange(lo, hi, bp.threads)
		si.z = mat.Page(rows)
	} else {
		rows = m.Emb.Y.RowSlice(lo, hi)
	}
	ex := index.NewExact(rows, bp.threads)
	var iv *index.Table
	if bp.cfg.IVF {
		iv = index.BuildIVF(rows, bp.ivfCfg)
	}
	for c, on := range [index.NumCodecs]bool{index.F64: true, index.I8: bp.cfg.Quantize, index.F16: bp.cfg.FP16} {
		if !on {
			continue
		}
		c := index.Codec(c)
		var cell *index.Table
		if codes, ok := e.restoredCodes(sp, c, m.Version, lo, hi, rows.Cols); ok {
			cell = index.FromCodes(rows, c, codes, bp.cfg.Rerank, bp.threads)
		} else {
			cell = ex.Encode(c, bp.cfg.Rerank)
		}
		si.spaces[sp][flat][c] = cell.Shift(lo)
		if iv != nil {
			si.spaces[sp][inverted][c] = iv.Encode(c, bp.cfg.Rerank).Shift(lo)
		}
	}
	e.met.recordBuildWork(&si.spaces[sp], 0)
}

// refreshShard produces shard s's next generation from base using p's
// dirty rows; see refreshSpace for the per-space choice. fullWork reports
// whether any space fell back to a from-scratch build.
func (e *Engine) refreshShard(m *Model, s int, base *shardIdx, p shardPending) (si *shardIdx, fullWork bool) {
	bp := e.shardBuildParams(m)
	si = &shardIdx{version: m.Version}
	for sp := range si.spaces {
		if e.refreshSpace(si, sp, m, s, base, p, bp) {
			fullWork = true
		}
	}
	return si, fullWork
}

// refreshSpace fills si's cells of space sp from base, choosing between
// sharing (nothing pending), incremental refresh (dirty fraction at or
// below the threshold), reseating after a low-rank Gram correction, and a
// full rebuild (poisoned space or a delta past the threshold), which it
// reports. Incremental link refresh recomputes only the dirty Z rows
// (core's row-restricted transform is bit-identical to the full product)
// and the new block is the previous one WithRows: one pointer per page and
// the dirty pages are copied, the rest shared. A correction rewrites every
// row, so that path copies the block whole; the attribute block is a view
// of the new Y. Every cell then takes index's copy-on-write Refresh, the
// inverted ones behind their float64 cell so the layout is refreshed once;
// the coarse quantizer stays frozen, exactly as a frozen-quantizer full
// rebuild would assign every row.
func (e *Engine) refreshSpace(si *shardIdx, sp int, m *Model, s int, base *shardIdx, p shardPending, bp buildParams) (full bool) {
	ranges := e.shards.ranges[sp]
	if s >= len(ranges) {
		return false
	}
	lo, hi := ranges[s][0], ranges[s][1]
	dirty := sortedRowsIn(p.dirty[sp], lo, hi)
	var grams []*core.GramDelta
	if sp == linkSpace {
		grams = p.grams
	}
	gramRank := 0
	for _, gd := range grams {
		gramRank += gd.Rank()
	}
	switch {
	case p.full[sp] || gramRank >= m.Emb.Y.Cols ||
		float64(len(dirty)) > e.refreshThreshold*float64(hi-lo):
		// Poisoned space, a coalesced correction whose rank bound reaches
		// the factor width (correcting every row would cost as much as the
		// full transform), or a dirty delta past the threshold.
		e.buildSpace(si, sp, m, s, bp)
		return true
	case len(dirty) == 0 && len(grams) == 0:
		// The rows are bit-identical in the new model (the previous
		// generation's attribute cells wrap a view of the previous Y), so
		// sharing them is exact.
		si.spaces[sp] = base.spaces[sp]
		if sp == linkSpace {
			si.z = base.z
		}
		return false
	}
	local := make([]int, len(dirty))
	for j, r := range dirty {
		local[j] = r - lo
	}
	var rows *mat.Paged
	var copied int64
	if sp == linkSpace {
		rows = base.z
		if len(grams) > 0 {
			// Every candidate row shifts by Xb[i]·ΔG under a correction, so
			// apply the accumulated ones to a copy of the whole block in
			// O(n·rank·k); the dirty rows — whose Xb changed, for which the
			// additive correction is wrong — are overwritten below.
			z := rows.Dense()
			for _, gd := range grams {
				gd.Apply(z, m.Emb.Xb, lo, bp.threads)
			}
			rows, copied = mat.Page(z), int64(8*len(z.Data))
		}
		if len(dirty) > 0 {
			was := rows
			rows = was.WithRows(local, m.Scorer.TransformedCandidatesRows(dirty, bp.threads))
			for k, pg := range rows.Pages() {
				copied += 24 // the page slice
				if !rows.SamePage(was, k) {
					copied += int64(8 * len(pg))
				}
			}
		}
		si.z = rows
	} else {
		rows = mat.Page(m.Emb.Y.RowSlice(lo, hi))
	}
	for l := range base.spaces[sp] {
		var lead *index.Table
		for c, old := range base.spaces[sp][l] {
			if old == nil {
				continue
			}
			var next *index.Table
			if len(grams) > 0 {
				// A correction moved every row by a small nudge, not to
				// new clusters: keep the assignments, re-encode everything.
				next = old.Reseat(rows, lead)
			} else {
				next = old.Refresh(rows, local, lead)
			}
			if lead == nil {
				lead = next // the float64 cell comes first and is always built
			}
			si.spaces[sp][l][c] = next
		}
	}
	e.met.recordBuildWork(&si.spaces[sp], copied)
	return false
}

// restoredCodes returns the bundle-restored encoding of rows [lo, hi) of
// space sp under codec c, when one exists that matches this model version
// and shape. The encodings are per row (per element for binary16), so the
// row slice of the whole matrix's payload is bit-identical to encoding the
// shard's rows fresh: restored and self-computed cells are
// interchangeable, and on any mismatch (newer model version, different
// shape) the payload is ignored and the rows are encoded fresh.
func (e *Engine) restoredCodes(sp int, c index.Codec, version uint64, lo, hi, dim int) (index.Codes, bool) {
	r := e.restored.Load()
	if r == nil || r.version != version {
		return index.Codes{}, false
	}
	switch {
	case c == index.I8 && r.quant != nil:
		qm := [nSpaces]*store.QuantizedMatrix{&r.quant.Links, &r.quant.Attrs}[sp]
		if qm.Dim == dim && hi <= qm.Rows {
			return index.Codes{I8: qm.Codes, Scale: qm.Scale, Base: qm.Base}.Rows(lo, hi, dim), true
		}
	case c == index.F16 && r.half != nil:
		hm := [nSpaces]*store.HalfMatrix{&r.half.Links, &r.half.Attrs}[sp]
		if hm.Dim == dim && hi <= hm.Rows {
			return index.Codes{F16: hm.Codes}.Rows(lo, hi, dim), true
		}
	}
	return index.Codes{}, false
}

// freshShards returns the consistent cut of the published shard indexes
// at m's version: every shard serving exactly that version. Anything else
// (disabled, some shard still building, or a mixed generation set
// mid-catchup) returns nil and the caller scans — a query can never
// combine shards from two model versions.
func (e *Engine) freshShards(m *Model) *cut {
	if e.shards == nil {
		return nil
	}
	if c := e.shards.cut.Load(); c != nil && c.version == m.Version {
		return c
	}
	return nil
}

// publish stores shard s's new generation and, when that completes a cut
// — every slot at si's version — assembles and publishes the cut. Slots
// and cuts only move forward, so a publisher that lost a race to a newer
// cut leaves it in place.
func (e *Engine) publish(s int, si *shardIdx) {
	ss := e.shards
	ss.slots[s].Store(si)
	c := &cut{version: si.version, shards: make([]*shardIdx, len(ss.slots))}
	for i := range ss.slots {
		sh := ss.slots[i].Load()
		if sh == nil || sh.version != si.version {
			return
		}
		c.shards[i] = sh
	}
	slab := make([]*index.Table, 0, nSpaces*nLayouts*int(index.NumCodecs)*len(c.shards))
	for sp := range c.tables {
		for l := range c.tables[sp] {
			for cd := range c.tables[sp][l] {
				for _, sh := range c.shards {
					slab = append(slab, sh.spaces[sp][l][cd]) // nil past the attribute row space: a search skips it
				}
				c.tables[sp][l][cd] = slab[len(slab)-len(c.shards) : len(slab) : len(slab)]
			}
		}
	}
	for {
		old := ss.cut.Load()
		if old != nil && old.version >= c.version {
			return
		}
		if ss.cut.CompareAndSwap(old, c) {
			if p := ss.published.Load(); p != nil && p.target == c.version {
				e.met.publishLag.Observe(time.Since(p.at))
			}
			return
		}
	}
}

// scheduleIndexRebuild merges one published update's dirty-row delta into
// every shard's pending obligation and ensures each shard has (or gets) a
// worker responsible for catching up. No-op when indexing is disabled or
// manual. Callers publish the new model BEFORE calling this, so marking
// afterwards guarantees the version is covered: a running worker re-checks
// its pending before exiting (under mu, so a concurrent mark either is
// seen by that check or observes running == false and spawns a new
// worker). A sustained update stream therefore collapses into at most one
// coalesced delta build behind the in-flight one per shard, with never
// more than one goroutine alive per shard.
func (e *Engine) scheduleIndexRebuild(d idxDelta) {
	if e.shards == nil {
		return
	}
	e.met.lastDelta.Set(float64(d.rows))
	e.shards.published.Store(&idxDelta{target: d.target, at: d.at}) // not d: it would pin the delta's rows
	if e.idxManual {
		return
	}
	ss := e.shards
	ss.mu.Lock()
	ss.markLocked(d)
	for s := range ss.slots {
		if !ss.running[s] {
			ss.running[s] = true
			go e.shardWorker(s)
		}
	}
	ss.mu.Unlock()
}

// shardWorker drains shard s's pending delta, building toward whatever
// model is current each iteration, and announces idleness on exit.
func (e *Engine) shardWorker(s int) {
	ss := e.shards
	for {
		ss.mu.Lock()
		p := ss.pending[s]
		if p.target == 0 {
			ss.running[s] = false
			ss.idleC.Broadcast()
			ss.mu.Unlock()
			return
		}
		ss.pending[s] = shardPending{}
		ss.mu.Unlock()
		if e.buildShard(s, p) {
			continue
		}
		// The model moved past p.target with its dirty mark still in
		// flight (apply publishes before marking). Building now would
		// publish the new version from a delta that does not cover it, so
		// put the taken delta back; if the missing mark landed meanwhile
		// the merged pending already reaches the current model and the
		// loop retries, otherwise exit and let the incoming mark — which
		// sees running == false — respawn the worker with the full delta.
		ss.mu.Lock()
		ss.remergeLocked(s, p)
		retry := ss.pending[s].target > p.target
		if !retry {
			ss.running[s] = false
			ss.idleC.Broadcast()
		}
		ss.mu.Unlock()
		if !retry {
			return
		}
	}
}

// buildShard brings shard s up to the engine's current model version by
// applying the taken pending delta p: an incremental refresh when the
// previous generation exists and p's dirty fraction is within the
// threshold, a full rebuild otherwise. It reports false — without
// building — when p does not describe reaching the current model (its
// mark is still in flight; see shardWorker). Redundant calls (shard
// already at or past the current version, e.g. a concurrent manual
// RebuildIndex won) return true immediately, so update bursts collapse
// into one build of the latest version per shard.
func (e *Engine) buildShard(s int, p shardPending) bool {
	ss := e.shards
	ss.buildMu[s].Lock()
	defer ss.buildMu[s].Unlock()
	m := e.Model()
	base := ss.slots[s].Load()
	if base != nil && base.version >= m.Version {
		return true
	}
	if m.Version != p.target {
		return false
	}
	// The pending delta accumulates every update since the shard last
	// published, so it covers all rows changed between base's version and
	// the current model — possibly more (rows a manual full rebuild
	// already absorbed), never less; refreshing a clean row recomputes the
	// identical values.
	var si *shardIdx
	fullWork := true
	t0 := time.Now()
	if base == nil {
		si = e.buildShardIdx(m, s)
	} else {
		si, fullWork = e.refreshShard(m, s, base, p)
	}
	d := time.Since(t0)
	if fullWork {
		e.met.buildFull.Inc()
		e.met.buildDurFull.Observe(d)
	} else {
		e.met.buildIncr.Inc()
		e.met.buildDurIncr.Observe(d)
	}
	e.publish(s, si)
	return true
}

// rebuildShardFull unconditionally brings shard s to the current model
// version with a from-scratch build (retraining the IVF coarse quantizer)
// unless it is already there.
func (e *Engine) rebuildShardFull(s int) {
	ss := e.shards
	ss.buildMu[s].Lock()
	defer ss.buildMu[s].Unlock()
	m := e.Model()
	if cur := ss.slots[s].Load(); cur != nil && cur.version >= m.Version {
		return
	}
	t0 := time.Now()
	e.publish(s, e.buildShardIdx(m, s))
	e.met.buildFull.Inc()
	e.met.buildDurFull.Observe(time.Since(t0))
}

// RebuildIndex synchronously builds and publishes every shard's index for
// the engine's current model version, rebuilding the shards concurrently.
// Shards already at or past that version are skipped. This is always a
// from-scratch build — the manual escape hatch from incremental refresh,
// and the path that re-trains each shard's IVF coarse quantizer.
func (e *Engine) RebuildIndex() {
	if e.shards == nil {
		return
	}
	var wg sync.WaitGroup
	for s := range e.shards.slots {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			e.rebuildShardFull(s)
		}(s)
	}
	wg.Wait()
}

// WaitForIndex blocks until every shard's asynchronous rebuild worker has
// drained its scheduled rebuilds, and is safe to call while further
// updates keep scheduling new ones. After it returns (and absent
// concurrent updates) every published shard matches the current model
// version — under automatic rebuilds, that is; with
// WithManualIndexRebuild nothing is ever scheduled, so it returns
// immediately and freshness is the caller's RebuildIndex responsibility.
func (e *Engine) WaitForIndex() {
	ss := e.shards
	if ss == nil {
		return
	}
	ss.mu.Lock()
	for ss.anyBusy() {
		ss.idleC.Wait()
	}
	ss.mu.Unlock()
}

// anyBusy reports whether any shard has a running worker or a pending
// rebuild. Callers hold mu.
func (ss *shardSet) anyBusy() bool {
	for s := range ss.running {
		if ss.running[s] || ss.pending[s].target != 0 {
			return true
		}
	}
	return false
}

// IndexStatus reports the serving-index state for monitoring.
type IndexStatus struct {
	Enabled bool `json:"enabled"`
	// Version is the model version served by the full shard set: the
	// minimum over the per-shard generations, 0 while any shard has yet
	// to publish. Queries use the index only when it equals the current
	// model version.
	Version uint64 `json:"version,omitempty"`
	IVF     bool   `json:"ivf,omitempty"`
	NList   int    `json:"nlist,omitempty"`  // per-shard IVF lists (first shard)
	NProbe  int    `json:"nprobe,omitempty"` // default probes per IVF query
	// Quantize reports whether the SQ8/IVFSQ tiers are built; Rerank is
	// their default exact-re-rank survivor multiplier.
	Quantize bool `json:"quantize,omitempty"`
	Rerank   int  `json:"rerank,omitempty"`
	// FP16 reports whether the binary16 tiers are built.
	FP16 bool `json:"fp16,omitempty"`
	// Shards is the shard count; ShardVersions the per-shard index
	// generations, exposing rebuild progress shard by shard (0 = not yet
	// published).
	Shards        int      `json:"shards,omitempty"`
	ShardVersions []uint64 `json:"shard_versions,omitempty"`
	// Update-path accounting: shard build cycles served by incremental
	// (delta) refresh vs from-scratch rebuild (initial builds and manual
	// RebuildIndex count as full), the dirty-row count of the most recent
	// update's delta, and the dirty-fraction threshold in effect. No
	// omitempty: 0 is a meaningful reading for every one of these (an
	// explicit threshold of 0 disables incremental refresh, and a zero
	// counter is a dashboard datum, not an absence).
	IncrementalRefreshes uint64  `json:"incremental_refreshes"`
	FullRebuilds         uint64  `json:"full_rebuilds"`
	LastDeltaRows        uint64  `json:"last_delta_rows"`
	RefreshThreshold     float64 `json:"refresh_threshold"`
}

// IndexStatus returns the current index state.
func (e *Engine) IndexStatus() IndexStatus {
	if e.shards == nil {
		return IndexStatus{}
	}
	ss := e.shards
	st := IndexStatus{
		Enabled:              true,
		IVF:                  e.idxCfg.IVF,
		Quantize:             e.idxCfg.Quantize,
		FP16:                 e.idxCfg.FP16,
		Shards:               len(ss.slots),
		ShardVersions:        make([]uint64, len(ss.slots)),
		IncrementalRefreshes: e.met.buildIncr.Value(),
		FullRebuilds:         e.met.buildFull.Value(),
		LastDeltaRows:        uint64(e.met.lastDelta.Value()),
		RefreshThreshold:     e.refreshThreshold,
	}
	if st.Quantize {
		st.Rerank = e.idxCfg.Rerank
		if st.Rerank <= 0 {
			st.Rerank = index.DefaultRerank
		}
	}
	minVer, complete := uint64(0), true
	for s := range ss.slots {
		si := ss.slots[s].Load()
		if si == nil {
			complete = false
			continue
		}
		st.ShardVersions[s] = si.version
		if minVer == 0 || si.version < minVer {
			minVer = si.version
		}
		if iv := si.spaces[linkSpace][inverted][index.F64]; s == 0 && iv != nil {
			st.NList = iv.NList()
			st.NProbe = iv.DefaultNProbe()
		}
	}
	if complete {
		st.Version = minVer
	}
	return st
}

// assembleCodes reassembles the full-matrix int8 and binary16 payloads
// from a fresh consistent shard cut at m's version; either is nil when
// its tier is not built or any shard is stale or still building — the
// payloads are optional bundle sections, and a loader just re-encodes
// (bit-identically) without them. Because the encodings are per row,
// concatenating the shards' flat blocks in shard order IS the whole
// matrix's encoding.
func (e *Engine) assembleCodes(m *Model) (*store.QuantPayload, *store.HalfPayload) {
	fresh := e.freshShards(m)
	if fresh == nil {
		return nil, nil
	}
	dim := m.Emb.Xf.Cols
	qp := &store.QuantPayload{
		Links: store.QuantizedMatrix{Rows: m.Nodes(), Dim: dim},
		Attrs: store.QuantizedMatrix{Rows: m.Attrs(), Dim: dim},
	}
	hp := &store.HalfPayload{
		Links: store.HalfMatrix{Rows: m.Nodes(), Dim: dim},
		Attrs: store.HalfMatrix{Rows: m.Attrs(), Dim: dim},
	}
	qms := [nSpaces]*store.QuantizedMatrix{&qp.Links, &qp.Attrs}
	hms := [nSpaces]*store.HalfMatrix{&hp.Links, &hp.Attrs}
	for sp := range fresh.tables {
		var q, h index.Codes
		for _, t := range fresh.tables[sp][flat][index.I8] {
			if t != nil {
				q = t.AppendCodes(q)
			}
		}
		for _, t := range fresh.tables[sp][flat][index.F16] {
			if t != nil {
				h = t.AppendCodes(h)
			}
		}
		qms[sp].Codes, qms[sp].Scale, qms[sp].Base, hms[sp].Codes = q.I8, q.Scale, q.Base, h.F16
	}
	// A partial assembly (tier not built, a shard lacking its cell) must
	// not be persisted.
	if !e.idxCfg.Quantize || len(qp.Links.Scale) != qp.Links.Rows || len(qp.Attrs.Scale) != qp.Attrs.Rows {
		qp = nil
	}
	if !e.idxCfg.FP16 || len(hp.Links.Codes) != hp.Links.Rows*dim || len(hp.Attrs.Codes) != hp.Attrs.Rows*dim {
		hp = nil
	}
	return qp, hp
}

// TopKAnswer is one served top-k result with its provenance: the model
// version it was computed against and the backend that answered.
type TopKAnswer struct {
	Results []core.Scored
	Version uint64
	Backend string
}

// TopLinks answers a link-prediction top-k query through the sharded
// index when a fresh consistent shard set exists, falling back to the
// brute-force scan otherwise. mode is one of the six Mode constants
// (ModeExact when empty); a mode whose cell the configuration did not
// build degrades as pick describes. nprobe overrides the per-shard probe
// count of the inverted modes when > 0. The query node itself is excluded.
func (e *Engine) TopLinks(u, k int, mode string, nprobe int) (TopKAnswer, error) {
	m := e.Model()
	res, backend, err := m.topLinks(e.freshShards(m), e.met, u, k, mode, nprobe)
	if err != nil {
		return TopKAnswer{}, err
	}
	return TopKAnswer{Results: res, Version: m.Version, Backend: backend}, nil
}

// TopAttrs answers an attribute-inference top-k query; see TopLinks for
// mode/nprobe semantics.
func (e *Engine) TopAttrs(v, k int, mode string, nprobe int) (TopKAnswer, error) {
	m := e.Model()
	res, backend, err := m.topAttrs(e.freshShards(m), e.met, v, k, mode, nprobe)
	if err != nil {
		return TopKAnswer{}, err
	}
	return TopKAnswer{Results: res, Version: m.Version, Backend: backend}, nil
}

// validateTopK checks the shared top-k query parameters.
func validateTopK(k int, mode string, nprobe int) (string, error) {
	if k < 1 {
		return "", fmt.Errorf("engine: k must be >= 1, got %d", k)
	}
	if mode == "" {
		mode = ModeExact
	}
	if _, ok := modeCell[mode]; !ok {
		return "", fmt.Errorf("engine: unknown mode %q (want %q, %q, %q, %q, %q, or %q)",
			mode, ModeExact, ModeIVF, ModeSQ8, ModeIVFSQ, ModeFP16, ModeIVFFP16)
	}
	if nprobe < 0 {
		return "", fmt.Errorf("engine: nprobe must be >= 0 (0 means the index default), got %d", nprobe)
	}
	return mode, nil
}

// modeCell places each query mode in the index grid, and backends names
// each cell as answers report it.
var (
	modeCell = map[string]struct {
		layout int
		codec  index.Codec
	}{
		ModeExact: {flat, index.F64}, ModeSQ8: {flat, index.I8}, ModeFP16: {flat, index.F16},
		ModeIVF: {inverted, index.F64}, ModeIVFSQ: {inverted, index.I8}, ModeIVFFP16: {inverted, index.F16},
	}
	backends = [nLayouts][index.NumCodecs]string{
		flat:     {BackendExact, BackendSQ8, BackendFP16},
		inverted: {BackendIVF, BackendIVFSQ, BackendIVFFP16},
	}
)

// cell is one position of a space's index grid.
type cell struct {
	space, layout int
	codec         index.Codec
}

// order numbers the cells, so a batch can sort its searches by cell.
func (c cell) order() int { return (c.space*nLayouts+c.layout)*int(index.NumCodecs) + int(c.codec) }

// backend names the cell as answers and metrics report it.
func (c cell) backend() string { return backends[c.layout][c.codec] }

// tables returns the cell's table in every shard of the cut.
func (c cell) tables(shards *cut) []*index.Table {
	return shards.tables[c.space][c.layout][c.codec]
}

// pick selects the cell of space sp that answers mode across a shard
// set. The choice is uniform across shards (every generation builds the
// same cells), so one backend label describes the whole fan-out. A mode
// whose cell was not built first gives up its codec, then its layout —
// ivfsq → ivf → exact and sq8 → exact (likewise ivffp16 → ivf → exact and
// fp16 → exact) — so an inverted mode never lands on a flat compressed
// cell.
func pick(shards *cut, sp int, mode string) cell {
	at := modeCell[mode]
	c := cell{space: sp, layout: at.layout, codec: at.codec}
	built := &shards.shards[0].spaces[sp]
	if built[c.layout][c.codec] == nil {
		c.codec = index.F64
	}
	if built[c.layout][c.codec] == nil {
		c.layout = flat
	}
	return c
}

// search answers one query over cell c of shards and records the stages
// and the work it took.
func (c cell) search(shards *cut, met *engineMetrics, q index.BatchQuery) []core.Scored {
	var out [1][]core.Scored
	st := index.SearchBatch(c.tables(shards), []index.BatchQuery{q}, out[:])
	met.recordSearch(c, st)
	return out[0]
}

// topLinks runs the link top-k against this model, fanning out over
// shards when non-nil. met may be nil (Model.Execute outside an engine);
// with one, the shard fan-out, merge, and scan-fallback stages record
// into the engine's stage histograms.
func (m *Model) topLinks(shards *cut, met *engineMetrics, u, k int, mode string, nprobe int) ([]core.Scored, string, error) {
	mode, err := validateTopK(k, mode, nprobe)
	if err != nil {
		return nil, "", err
	}
	if u < 0 || u >= m.Nodes() {
		return nil, "", fmt.Errorf("engine: src %d out of range [0,%d)", u, m.Nodes())
	}
	if shards != nil {
		c := pick(shards, linkSpace, mode)
		skip := func(id int) bool { return id == u }
		res := c.search(shards, met, index.BatchQuery{Q: m.Emb.Xf.Row(u), K: k, Opt: index.Options{NProbe: nprobe, Skip: skip}})
		return res, c.backend(), nil
	}
	sp := obs.StartSpan(met.scanHist())
	res := m.Scorer.TopKTargets(u, k, nil)
	sp.End()
	return res, BackendScan, nil
}

// topAttrs runs the attribute top-k against this model, fanning out over
// shards when non-nil; see topLinks for met semantics.
func (m *Model) topAttrs(shards *cut, met *engineMetrics, v, k int, mode string, nprobe int) ([]core.Scored, string, error) {
	mode, err := validateTopK(k, mode, nprobe)
	if err != nil {
		return nil, "", err
	}
	if v < 0 || v >= m.Nodes() {
		return nil, "", fmt.Errorf("engine: node %d out of range [0,%d)", v, m.Nodes())
	}
	if shards != nil {
		c := pick(shards, attrSpace, mode)
		vec := getVec(m.Emb.Xf.Cols)
		res := c.search(shards, met, index.BatchQuery{Q: m.Emb.AttrQueryInto(v, *vec), K: k, Opt: index.Options{NProbe: nprobe}})
		putVec(vec)
		return res, c.backend(), nil
	}
	sp := obs.StartSpan(met.scanHist())
	res := m.Emb.TopKAttrs(v, k, nil)
	sp.End()
	return res, BackendScan, nil
}
