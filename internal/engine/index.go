package engine

// Sharded per-version top-k index lifecycle. An Engine with indexing
// enabled partitions the candidate matrices — Z = Xb·G for links (n
// rows), Y for attributes (d rows) — into S contiguous row shards. Each
// shard holds an exact cell (and optionally the inverted and compressed
// cells) over its block only. One refresh loop per engine keeps them
// current: an update marks its dirty rows into one pending delta that
// names the model it was marked for, and a cycle builds every shard's next
// generation for that model — the S smaller builds in parallel instead of
// one O(n) build — and stores them together as one cut. Every enabled
// cell is built before the cut is stored, so the cells can never serve
// mixed versions.
//
// A query resolves the model first, then accepts the cut only if it is at
// that model's version exactly. Anything else (disabled, or a cycle still
// building) falls back to the model's brute-force scan path, so a query is
// never answered by a stale index: between an update landing and its cut
// being stored, queries degrade to the scan (reported as backend "scan")
// but keep answering at the current model version. Accepted queries fan
// out across the shards in parallel and merge through core.TopK, which
// keeps sharded exact answers bit-for-bit identical to single-shard exact.

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
	// BackendExact answers exactly from the precomputed candidate matrix:
	// its int8 codes bound every row's score, and only the rows the bound
	// cannot rule out are scored in float64.
	BackendExact   = "exact"
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
	// Quantize additionally serves the SQ8 quantized tier: the int8 codes
	// each shard's exact cell already holds to bound its scores, scanned
	// under an approximate score at ~1/8 the float64 memory traffic and
	// re-ranked exactly. With IVF also set, the per-list IVFSQ variant is
	// served from the IVF's lists and codes. Neither encodes or stores a
	// second copy of anything.
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
	// config's Threads. A refresh cycle divides it across the shards it
	// builds in parallel.
	Threads int
	// Seed drives k-means determinism; 0 follows the model config's Seed.
	Seed int64
	// Shards is the number of contiguous row shards the candidate
	// matrices are split into; values <= 1 mean one shard, and values
	// above the row count are clamped. A refresh cycle builds the shards in
	// parallel and queries fan out across all of them.
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

// WithManualIndexRebuild turns off the automatic asynchronous refresh
// after updates: updates still mark their deltas, and callers run the
// pending cycle with RebuildIndex. Tests use this to pin the "update
// applied, index not yet republished" state deterministically.
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

// shardIdx is one shard's part of a cut: its immutable cells over its row
// block. A generation produced by incremental refresh shares with its
// predecessor every 16-row page of the candidate block and of each flat
// cell's codes that no dirty row is on, and every inverted list no dirty
// row left or joined; a shard with no dirty rows shares everything and
// carrying it into the next cut is O(1).
type shardIdx struct {
	z      *mat.Paged // this shard's block of Z = Xb·G, on the pages the flat link cells hold
	spaces [nSpaces]cells
}

// cut is one index generation: every shard's cells for one model version,
// all built before the cut is stored, so a query can never observe an
// exact cell at one version and a quantized cell at another. Each cell's
// per-shard tables are laid out once for index.SearchBatch.
type cut struct {
	version uint64
	shards  []*shardIdx
	tables  [nSpaces][nLayouts][index.NumCodecs][]*index.Table
}

// idxDelta is what the index owes: the model the newest mark named and,
// per space, the rows that changed between the stored cut and that model,
// coalesced across every mark since a cycle last took the delta. full
// poisons a space into a full rebuild (full-sweep model updates, a loaded
// bundle; any Y movement for the link space, since G = YᵀY shifts every
// candidate row).
type idxDelta struct {
	model *Model
	at    time.Time // when model was published; zero for the initial build
	full  [nSpaces]bool
	dirty [nSpaces][]int // global row ids, ascending
	// grams are the low-rank link-space corrections of the attribute
	// deltas since the cut, oldest first. Each is additive on every row
	// whose Xb row did not change, and rows that did change are in
	// dirty[linkSpace] and get recomputed exactly — so applying them all
	// against model's Xb is order-independent and reproduces the Z shift
	// without a full transform. Ignored when the link space is poisoned
	// (the rebuild recomputes Z anyway).
	grams []*core.GramDelta
}

// shardSet is the sharded serving-index state of one Engine: the fixed
// shard layout (node and attribute universes are fixed at training time,
// so the ranges never change), the stored cut, and the refresh loop.
type shardSet struct {
	// ranges[sp] are the contiguous row ranges of space sp, one per
	// shard; the attribute space may span fewer shards than the link
	// space.
	ranges [nSpaces][][2]int
	cut    atomic.Pointer[cut] // stored only by a cycle; versions only rise

	// buildMu orders the cycles (the worker's and RebuildIndex's): a cycle
	// takes the pending delta and stores its cut under it, so each cycle
	// builds on the cut the previous one stored, from exactly the delta
	// marked since.
	buildMu sync.Mutex
	// Under mu: the pending delta (nil = nothing owed) and whether the
	// worker goroutine is alive. WaitForIndex waits on idleC for it to
	// retire.
	mu      sync.Mutex
	idleC   *sync.Cond
	pending *idxDelta
	running bool
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
	if len(linkRanges) == 0 { // n == 0: keep one empty shard
		linkRanges = [][2]int{{0, 0}}
	}
	ss := &shardSet{}
	ss.ranges[linkSpace] = linkRanges
	ss.ranges[attrSpace] = mat.SplitRanges(d, len(linkRanges))
	ss.idleC = sync.NewCond(&ss.mu)
	return ss
}

// markLocked unions d, one published model's delta, into the pending
// delta, which then names d's model. Callers hold mu.
func (ss *shardSet) markLocked(d *idxDelta) {
	p := ss.pending
	if p == nil {
		ss.pending = d
		return
	}
	p.model, p.at = d.model, d.at
	for sp := range p.full {
		p.full[sp] = p.full[sp] || d.full[sp]
		p.dirty[sp] = mergeRows(p.dirty[sp], d.dirty[sp])
	}
	p.grams = append(p.grams, d.grams...)
}

// mergeRows returns the ascending union of two ascending row sets.
func mergeRows(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// take removes and returns the pending delta. A worker that finds none
// retires in the same critical section, so a mark either lands before and
// is taken by its next cycle, or finds running false and spawns a new
// worker.
func (ss *shardSet) take(worker bool) *idxDelta {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	d := ss.pending
	ss.pending = nil
	if d == nil && worker {
		ss.running = false
		ss.idleC.Broadcast()
	}
	return d
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
	// Divide build parallelism across shards: a cycle builds them in
	// parallel, so each gets a slice of the budget rather than all of it.
	threads /= len(e.shards.ranges[linkSpace])
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

// buildShard produces shard s's next generation for d's model from its
// part of the base cut (nil: there is none yet, so every space builds),
// recording the cycle by kind. Only the shard's own block of Z is
// computed, which is what makes S builds S-times smaller than one
// monolithic build.
func (e *Engine) buildShard(d *idxDelta, s int, base *cut, bp buildParams) *shardIdx {
	var prev *shardIdx
	if base != nil {
		prev = base.shards[s]
	}
	t0 := time.Now()
	si, full := &shardIdx{}, false
	for sp := range si.spaces {
		if e.refreshSpace(si, sp, d, s, prev, bp) {
			full = true
		}
	}
	if dur := time.Since(t0); full {
		e.met.buildFull.Inc()
		e.met.buildDurFull.Observe(dur)
	} else {
		e.met.buildIncr.Inc()
		e.met.buildDurIncr.Observe(dur)
	}
	return si
}

// buildSpace fills si's cells of space sp with a full build over the
// shard's candidate rows: its freshly computed block of Z, or its block
// of Y (a view of the model's matrix, not a copy). One BuildIVF serves
// every inverted cell, so three codecs cost one k-means and one copy of
// the lists. Each layout's float64 cell holds the int8 encoding its scan
// bounds scores with, and its int8 and binary16 cells scan that encoding
// too (index.Table.Encode). A restored engine builds the same way: a
// bundle carries no encodings.
func (e *Engine) buildSpace(si *shardIdx, sp int, m *Model, lo, hi int, bp buildParams) {
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
		cell, list := ex, iv
		if c != index.F64 {
			cell = ex.Encode(c, bp.cfg.Rerank)
			if iv != nil {
				list = iv.Encode(c, bp.cfg.Rerank)
			}
		}
		si.spaces[sp][flat][c] = cell.Shift(lo)
		if list != nil {
			si.spaces[sp][inverted][c] = list.Shift(lo)
		}
	}
	e.met.recordBuildWork(&si.spaces[sp], 0)
}

// refreshSpace fills si's cells of space sp for d's model from base,
// choosing between a full build (no base, poisoned space, or a delta past
// the threshold), which it reports, sharing (nothing dirty), incremental
// refresh, and reseating after a low-rank Gram correction. No-op for a
// shard holding no rows of the space. Incremental link refresh recomputes
// only the dirty Z rows (core's row-restricted transform is bit-identical
// to the full product) and the new block is the previous one WithRows:
// one pointer per page and the dirty pages are copied, the rest shared. A
// correction rewrites every row, so that path copies the block whole; the
// attribute block is a view of the new Y. Every cell then takes index's
// copy-on-write Refresh, the inverted ones behind their float64 cell so
// the layout is refreshed once; the coarse quantizer stays frozen, exactly
// as a frozen-quantizer full rebuild would assign every row.
func (e *Engine) refreshSpace(si *shardIdx, sp int, d *idxDelta, s int, base *shardIdx, bp buildParams) (full bool) {
	ranges := e.shards.ranges[sp]
	if s >= len(ranges) {
		return false
	}
	m := d.model
	lo, hi := ranges[s][0], ranges[s][1]
	dirty := d.dirty[sp][sort.SearchInts(d.dirty[sp], lo):sort.SearchInts(d.dirty[sp], hi)]
	var grams []*core.GramDelta
	if sp == linkSpace {
		grams = d.grams
	}
	gramRank := 0
	for _, gd := range grams {
		gramRank += gd.Rank()
	}
	switch {
	case base == nil || d.full[sp] || gramRank >= m.Emb.Y.Cols ||
		float64(len(dirty)) > e.refreshThreshold*float64(hi-lo):
		// No generation to refresh, a poisoned space, a coalesced
		// correction whose rank bound reaches the factor width (correcting
		// every row would cost as much as the full transform), or a dirty
		// delta past the threshold.
		e.buildSpace(si, sp, m, lo, hi, bp)
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

// freshShards returns the stored cut when it is at m's version, and nil
// otherwise (disabled, or a cycle still building): the caller then scans,
// so a query is never answered by a stale index.
func (e *Engine) freshShards(m *Model) *cut {
	if e.shards == nil {
		return nil
	}
	if c := e.shards.cut.Load(); c != nil && c.version == m.Version {
		return c
	}
	return nil
}

// scheduleIndexRebuild marks d, one published model's delta (rows dirty
// rows, for the gauge), into the pending delta and, unless rebuilds are
// manual, makes sure the worker runs. Callers publish d's model before
// marking and mark in version order (under writeMu), so the pending delta
// names the newest marked model, and a sustained update stream is one
// goroutine building one coalesced delta behind the cycle in flight. The
// refresh runs beside the write rather than inside it: measured inline on
// the 2-core reference box, it added 8–19 % to the write-ack p50 on every
// benchmark workload.
func (e *Engine) scheduleIndexRebuild(d *idxDelta, rows int) {
	ss := e.shards
	if ss == nil {
		return
	}
	e.met.lastDelta.Set(float64(rows))
	ss.mu.Lock()
	ss.markLocked(d)
	spawn := !e.idxManual && !ss.running
	ss.running = ss.running || spawn
	ss.mu.Unlock()
	if spawn {
		go func() {
			for e.cycle(true) {
			}
		}()
	}
}

// cycle takes the pending delta and builds and stores the cut at its
// model, reporting whether one was pending; worker says the caller is the
// worker goroutine, which retires when there is none.
func (e *Engine) cycle(worker bool) bool {
	ss := e.shards
	ss.buildMu.Lock()
	defer ss.buildMu.Unlock()
	d := ss.take(worker)
	if d != nil {
		e.build(d)
	}
	return d != nil
}

// build produces every shard's next generation for d's model — never the
// engine's current one, which may have moved past it — from the stored
// cut, shard 0 on this goroutine and the others beside it, and stores the
// new cut. Callers hold buildMu, or are a test running no worker.
func (e *Engine) build(d *idxDelta) {
	ss := e.shards
	base := ss.cut.Load()
	bp := e.shardBuildParams(d.model)
	c := &cut{version: d.model.Version, shards: make([]*shardIdx, len(ss.ranges[linkSpace]))}
	var wg sync.WaitGroup
	for s := 1; s < len(c.shards); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.shards[s] = e.buildShard(d, s, base, bp)
		}()
	}
	c.shards[0] = e.buildShard(d, 0, base, bp)
	wg.Wait()
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
	ss.cut.Store(c)
	if !d.at.IsZero() {
		e.met.publishLag.Observe(time.Since(d.at))
	}
}

// RebuildIndex runs the pending refresh cycle now, on the caller's
// goroutine, and returns once its cut is stored; with nothing pending it
// is a no-op. Under WithManualIndexRebuild this is the only way the index
// catches up.
func (e *Engine) RebuildIndex() {
	if e.shards != nil {
		e.cycle(false)
	}
}

// WaitForIndex blocks until the refresh worker has drained every pending
// delta and retired, and is safe to call while further updates keep
// marking new ones. After it returns (and absent concurrent updates) the
// stored cut matches the current model version — under automatic
// refresh, that is; with WithManualIndexRebuild no worker ever runs, so it
// returns immediately and freshness is the caller's RebuildIndex
// responsibility.
func (e *Engine) WaitForIndex() {
	ss := e.shards
	if ss == nil {
		return
	}
	ss.mu.Lock()
	for ss.running {
		ss.idleC.Wait()
	}
	ss.mu.Unlock()
}

// IndexStatus reports the serving-index state for monitoring.
type IndexStatus struct {
	Enabled bool `json:"enabled"`
	// Version is the model version of the stored cut — every shard's
	// generation — and 0 before the first is stored. Queries use the index
	// only when it equals the current model version.
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
	// Shards is the shard count.
	Shards int `json:"shards,omitempty"`
	// Update-path accounting: shard builds served by incremental (delta)
	// refresh vs full build (initial builds, poisoned spaces and deltas
	// past the threshold count as full), the dirty-row count of the most
	// recent update's delta, and the dirty-fraction threshold in effect.
	// No omitempty: 0 is a meaningful reading for every one of these (an
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
	st := IndexStatus{
		Enabled:              true,
		IVF:                  e.idxCfg.IVF,
		Quantize:             e.idxCfg.Quantize,
		FP16:                 e.idxCfg.FP16,
		Shards:               len(e.shards.ranges[linkSpace]),
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
	if c := e.shards.cut.Load(); c != nil {
		st.Version = c.version
		if iv := c.shards[0].spaces[linkSpace][inverted][index.F64]; iv != nil {
			st.NList = iv.NList()
			st.NProbe = iv.DefaultNProbe()
		}
	}
	return st
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
