// Package engine owns the lifecycle of a live PANE model: one versioned,
// atomically swappable bundle of embedding + scorer + graph + config.
//
// The seed repo froze a trained embedding behind read-only HTTP handlers;
// the paper's dynamic-update rules (core/dynamic.go) existed but nothing
// could reach them. Engine separates the two paths the way a serving
// system must: reads resolve the current model through one atomic pointer
// load and then never touch shared state again (a request observes one
// consistent model for its whole lifetime, and reads never block on
// writes), while writes are serialized behind a mutex, warm-start a new
// embedding from the previous one, and publish the result as a fresh
// immutable Model with a bumped version. Snapshot/restore round-trips the
// whole state through the single-file bundle format of internal/store.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pane/internal/core"
	"pane/internal/graph"
	"pane/internal/obs"
	"pane/internal/store"
	"pane/internal/wal"
)

// Model is one immutable, versioned generation of the served state.
// Everything reachable from a Model is read-only; updates replace the
// whole Model rather than mutating it.
type Model struct {
	// Version starts at 1 for a freshly trained model and increases by one
	// per applied update. It survives snapshot/restore.
	Version uint64
	Cfg     core.Config
	Graph   *graph.Graph
	Emb     *core.Embedding
	Scorer  *core.LinkScorer
}

// Nodes returns |V|.
func (m *Model) Nodes() int { return m.Graph.N }

// Attrs returns |R|.
func (m *Model) Attrs() int { return m.Graph.D }

// Engine coordinates readers and writers around the current Model.
type Engine struct {
	cur     atomic.Pointer[Model]
	writeMu sync.Mutex // serializes updates; never held by readers

	sweeps int // CCD sweeps per warm-start update

	// refreshThreshold is the dirty-row fraction at or below which an
	// update takes the delta path: restricted warm-start sweeps in the
	// model update, and incremental per-shard index refresh. Above it (or
	// at 0) the full paths run. See WithRefreshThreshold.
	refreshThreshold float64

	// affinityThreshold is the frontier fraction at or below which the
	// model side of an update patches the retained affinity recurrence
	// state instead of rebuilding it. See WithAffinityThreshold.
	affinityThreshold float64

	// affState is the retained pre-normalization recurrence state of the
	// current model's graph: patched by every delta-path update, rebuilt
	// from the graph otherwise, bit-identical either way. Guarded by
	// writeMu (apply is the only reader and writer); nil until the first
	// update.
	affState *core.AffinityState

	// obs, when set, receives one UpdateStats per applied update.
	obs func(UpdateStats)

	// optErr records the first invalid construction option; newEngine
	// fails with it instead of serving a silently-corrected configuration.
	optErr error

	// reg is the obs registry every engine counter, gauge, and stage
	// histogram lives in; met holds the pre-resolved handles the hot paths
	// record through. IndexStatus and AffinityStatus read the same handles,
	// so /healthz and /metrics cannot disagree. Per-engine by default
	// (WithMetricsRegistry shares one across engine + HTTP layer).
	reg *obs.Registry
	met *engineMetrics

	// Sharded serving-index state (see index.go). The index's cut is
	// stored separately from cur: queries accept it only when its version
	// matches the model they resolved, so a mid-refresh index is never
	// consulted.
	idxCfg    *IndexConfig
	idxManual bool
	shards    *shardSet

	// wal, when attached, receives every applied update's delta before
	// the new version publishes (see AttachWAL in wal.go). Atomic because
	// Snapshot compacts through it without holding writeMu.
	wal atomic.Pointer[wal.Log]

	// epoch is the fencing epoch this engine writes records at (leader)
	// or has accepted records from (follower). It starts at 0, bumps only
	// through Promote (failover) or by applying a record from a newer
	// epoch, and never regresses.
	epoch atomic.Uint32
	// observedEpoch is the highest foreign fencing epoch the engine has
	// been shown (Fence) — by a replication request from a promoted
	// lineage, or by an operator. While it exceeds epoch the engine is
	// deposed: every write fails with ErrFenced.
	observedEpoch atomic.Uint32
}

// ErrFenced reports a write refused because this engine's fencing epoch
// was superseded — a deposed leader, or a record from a deposed lineage.
// Callers detect it with errors.Is.
var ErrFenced = errors.New("engine: fenced by a newer epoch")

// DefaultUpdateSweeps is the number of CCD refinement sweeps an update
// runs from the previous solution. Small graph deltas move the optimum of
// Equation (4) only slightly, so 2 sweeps recover retrain-level fit (see
// examples/dynamicupdates).
const DefaultUpdateSweeps = 2

// DefaultRefreshThreshold is the dirty-row fraction at or below which
// updates take the delta path. 20% is well past the crossover where
// patching rows stops paying against streaming a full rebuild.
const DefaultRefreshThreshold = 0.2

// DefaultAffinityThreshold is the frontier fraction at or below which
// incremental updates patch the retained affinity state instead of
// re-running the full recurrence, mirroring DefaultRefreshThreshold: a
// frontier past 20% of the nodes re-runs so much of the recurrence that
// the restricted pass stops paying.
const DefaultAffinityThreshold = 0.2

// Option configures an Engine.
type Option func(*Engine)

// fail records err as the construction error (first one wins); New/Open
// return it instead of building an engine from an invalid option.
func (e *Engine) fail(err error) {
	if e.optErr == nil {
		e.optErr = err
	}
}

// WithUpdateSweeps overrides the CCD sweep count used per dynamic update.
func WithUpdateSweeps(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.sweeps = n
		}
	}
}

// WithRefreshThreshold sets the dirty-row fraction (of the node and
// attribute row counts respectively) at or below which an update runs the
// delta path — restricted warm-start sweeps plus incremental per-shard
// index refresh — instead of the full rebuild. 0 disables the delta path
// entirely; 1 always takes it. Values outside [0, 1] are a construction
// error.
func WithRefreshThreshold(t float64) Option {
	return func(e *Engine) {
		if t < 0 || t > 1 {
			e.fail(fmt.Errorf("engine: refresh threshold must be in [0,1], got %v", t))
			return
		}
		e.refreshThreshold = t
	}
}

// WithAffinityThreshold sets the frontier fraction (of the node count) at
// or below which the model side of an incremental update patches the
// retained affinity recurrence state over the delta's t-hop frontier —
// O(Δ) instead of the full O(n·d·t) recurrence. A larger frontier rebuilds
// the state from the new graph instead; the bits are the same either way,
// so the threshold trades time only. Only updates the refresh threshold
// routed to the delta path patch. Values outside (0, 1] are a
// construction error.
func WithAffinityThreshold(t float64) Option {
	return func(e *Engine) {
		if t <= 0 || t > 1 {
			e.fail(fmt.Errorf("engine: affinity threshold must be in (0,1], got %v", t))
			return
		}
		e.affinityThreshold = t
	}
}

// UpdateStats describes one applied update for observers: the published
// version, the row delta the update touched, and whether the delta path
// (restricted sweeps + incremental index refresh eligibility) ran.
type UpdateStats struct {
	Version     uint64
	DirtyNodes  int
	DirtyAttrs  int
	Incremental bool

	// The ack path by stage, the same observations
	// pane_update_stage_duration_seconds records (benchexp -exp update
	// reads them from here): graph merge, WAL append, affinity, CCD
	// refinement, scorer. WALSeconds is zero without a log.
	GraphSeconds    float64
	WALSeconds      float64
	AffinitySeconds float64
	CCDSeconds      float64
	ScorerSeconds   float64
	// AffinityIncremental reports whether the recurrence was patched over
	// the delta's frontier (vs re-run in full); AffinityFrontier is the
	// total frontier size (forward + backward rows re-run).
	AffinityIncremental bool
	AffinityFrontier    int
	// GramCorrection reports whether an attribute delta shipped a
	// low-rank Z-correction to the index instead of poisoning the link
	// space into full rebuilds.
	GramCorrection bool
}

// WithUpdateObserver registers fn to be called synchronously after every
// applied update (under the write lock — keep it cheap). Servers use it
// to log per-update delta sizes.
func WithUpdateObserver(fn func(UpdateStats)) Option {
	return func(e *Engine) { e.obs = fn }
}

// New wraps an already-trained embedding in an Engine at version 1.
func New(g *graph.Graph, emb *core.Embedding, cfg core.Config, opts ...Option) (*Engine, error) {
	return newEngine(g, emb, cfg, 1, opts)
}

func newEngine(g *graph.Graph, emb *core.Embedding, cfg core.Config, version uint64, opts []Option) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if emb.Xf.Rows != g.N || emb.Y.Rows != g.D || emb.K() != cfg.K {
		return nil, fmt.Errorf("engine: embedding %dx%d k=%d does not fit graph %dx%d with config K=%d",
			emb.Xf.Rows, emb.Y.Rows, emb.K(), g.N, g.D, cfg.K)
	}
	e := &Engine{
		sweeps:            DefaultUpdateSweeps,
		refreshThreshold:  DefaultRefreshThreshold,
		affinityThreshold: DefaultAffinityThreshold,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.optErr != nil {
		return nil, e.optErr
	}
	if e.idxCfg != nil {
		if err := e.idxCfg.validate(g.N); err != nil {
			return nil, err
		}
	}
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.met = newEngineMetrics(e.reg)
	e.met.modelVersion.Set(float64(version))
	e.cur.Store(&Model{
		Version: version,
		Cfg:     cfg,
		Graph:   g,
		Emb:     emb,
		Scorer:  core.NewLinkScorer(emb),
	})
	// Training leaves its garbage behind with a heap goal set by whatever
	// was live at its last collection, which depends on how its worker
	// goroutines happened to interleave: on a 30000-node, k=128 model the
	// goal it hands over ranged from 331 to 468 MB across identical runs,
	// and the first requests grew the heap to it. Collecting once here sets
	// the goal from the model's live set instead, so peak memory no longer
	// depends on the trainer's GC timing. It costs about 1 ms on that model
	// (2-core Xeon): the matrices hold no pointers to mark.
	runtime.GC()
	// Lay out the shard set (the node and attribute universes are fixed,
	// so the row ranges never change) and run the first cycle — no cut
	// yet, so it builds every shard — synchronously, so a fresh engine
	// serves indexed queries from its first request.
	if e.idxCfg != nil {
		e.shards = newShardSet(g.N, g.D, e.idxCfg.Shards)
		e.shards.pending = &idxDelta{model: e.Model()}
		e.RebuildIndex()
	}
	return e, nil
}

// Train trains a fresh model for g (parallel when cfg.Threads > 1) and
// returns it wrapped in an Engine at version 1.
func Train(g *graph.Graph, cfg core.Config, opts ...Option) (*Engine, error) {
	emb, _, err := core.Train(g, cfg)
	if err != nil {
		return nil, err
	}
	return New(g, emb, cfg, opts...)
}

// Model returns the current model. The returned value is immutable and
// remains valid (and internally consistent) even as updates land; callers
// doing several related reads should resolve it once and reuse it.
func (e *Engine) Model() *Model { return e.cur.Load() }

// Version returns the current model version.
func (e *Engine) Version() uint64 { return e.Model().Version }

// Epoch returns the fencing epoch the engine currently writes (or
// accepts replicated records) at. 0 until a failover promotes somebody.
func (e *Engine) Epoch() uint32 { return e.epoch.Load() }

// Deposed reports whether a newer fencing epoch has been observed: a
// deposed engine keeps serving reads but refuses every write with
// ErrFenced.
func (e *Engine) Deposed() bool { return e.observedEpoch.Load() > e.epoch.Load() }

// ObservedEpoch returns the highest fencing epoch the engine knows to
// exist anywhere — its own, or a newer one it was fenced with. A
// deposed server advertises this (not its own stale epoch) so callers
// learn which lineage superseded it.
func (e *Engine) ObservedEpoch() uint32 {
	if seen := e.observedEpoch.Load(); seen > e.epoch.Load() {
		return seen
	}
	return e.epoch.Load()
}

// Fence records that epoch exists somewhere in the deployment. If it
// exceeds the engine's own epoch the engine is deposed — writes fail
// from the next applyLocked on, while reads stay live (degraded mode).
// The replication handlers call this when a request arrives from a
// follower that already crossed a failover; idempotent and monotonic.
func (e *Engine) Fence(epoch uint32) {
	for {
		cur := e.observedEpoch.Load()
		if epoch <= cur {
			return
		}
		if e.observedEpoch.CompareAndSwap(cur, epoch) {
			if epoch > e.epoch.Load() {
				e.met.deposed.Set(1)
			}
			return
		}
	}
}

// Promote raises the engine's fencing epoch — the follower-to-leader
// transition. The new epoch must exceed both the engine's own epoch and
// every epoch it has observed; promoting below an observed epoch would
// fork a lineage the rest of the deployment already fenced off.
func (e *Engine) Promote(epoch uint32) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if own := e.epoch.Load(); epoch <= own {
		return fmt.Errorf("engine: promotion epoch %d does not advance own epoch %d", epoch, own)
	}
	if seen := e.observedEpoch.Load(); epoch <= seen {
		return fmt.Errorf("engine: promotion epoch %d not above observed epoch %d", epoch, seen)
	}
	if w := e.wal.Load(); w != nil {
		if last := w.LastEpoch(); epoch < last {
			return fmt.Errorf("engine: promotion epoch %d below the log's epoch %d", epoch, last)
		}
	}
	e.epoch.Store(epoch)
	e.met.epoch.Set(float64(epoch))
	e.met.deposed.Set(0)
	return nil
}

// ApplyEdges inserts directed edges into the graph and publishes a new
// model version whose embedding is warm-started from the previous one.
// Inserting an existing edge is a no-op on the graph but still refines
// and republishes. The node universe is fixed: out-of-range endpoints are
// rejected and no new version is published.
func (e *Engine) ApplyEdges(edges []graph.Edge) (*Model, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("engine: empty edge update")
	}
	return e.apply(edges, nil)
}

// ApplyAttrs adds node-attribute weight to the graph (weights are
// additive, matching the weighted set ER of §2.1) and publishes a new
// warm-started model version.
func (e *Engine) ApplyAttrs(attrs []graph.AttrEntry) (*Model, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("engine: empty attribute update")
	}
	return e.apply(nil, attrs)
}

func (e *Engine) apply(edges []graph.Edge, attrs []graph.AttrEntry) (*Model, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.applyLocked(edges, attrs)
}

func (e *Engine) applyLocked(edges []graph.Edge, attrs []graph.AttrEntry) (*Model, error) {
	// Fencing: a deposed engine (a newer epoch exists somewhere) must not
	// produce new versions — they would collide with the promoted
	// lineage's versions under a different epoch.
	ep := e.epoch.Load()
	if seen := e.observedEpoch.Load(); seen > ep {
		e.met.fenced.Inc()
		return nil, fmt.Errorf("%w: this engine is at epoch %d, epoch %d exists", ErrFenced, ep, seen)
	}
	prev := e.Model()
	t0 := time.Now()
	g, err := prev.Graph.WithUpdates(edges, attrs)
	if err != nil {
		return nil, err
	}
	stats := UpdateStats{Version: prev.Version + 1, GraphSeconds: e.met.observeStage(stageGraph, t0)}
	// Write-ahead, as soon as the delta is known to apply: it must be
	// durable under the log's sync policy before the version it produces
	// exists anywhere. A refused or torn append returns here with nothing
	// touched, the retained affinity state included; nothing after it can
	// fail.
	if w := e.wal.Load(); w != nil {
		t0 = time.Now()
		if err := w.Append(wal.Record{Version: stats.Version, Epoch: ep, Edges: edges, Attrs: attrs}); err != nil {
			return nil, err
		}
		stats.WALSeconds = e.met.observeStage(stageWAL, t0)
	}
	// The update's row delta: exactly the node and attribute rows whose
	// embedding rows a restricted warm start would move. Small deltas take
	// the delta path — restricted sweeps leave every untouched row
	// bit-identical, which is what lets the index refresh O(Δ) rows
	// instead of rebuilding O(n/S) per shard.
	touched := touchedDelta(edges, attrs)
	thr := e.refreshThreshold
	incremental := thr > 0 &&
		float64(len(touched.Nodes)) <= thr*float64(g.N) &&
		float64(len(touched.Attrs)) <= thr*float64(g.D)
	stats.Incremental = incremental
	stats.DirtyNodes, stats.DirtyAttrs = len(touched.Nodes), len(touched.Attrs)
	// Affinity: patch the retained state over the delta's frontier, or
	// rebuild it from g when there is none yet, the frontier is over
	// budget, or the update takes the full path. The state is a function
	// of g alone, so both arms leave the same bits.
	nb := threads(prev.Cfg)
	t0 = time.Now()
	st := e.affState
	var affUp core.AffinityUpdate
	if st != nil && incremental {
		// An error (the range checks WithUpdates has already passed)
		// leaves the state untouched and Incremental false: rebuild.
		affUp, _ = core.UpdateAffinity(st, g, edges, attrs, e.affinityThreshold, nb)
	}
	if !affUp.Incremental {
		st = core.NewAffinityState(g, prev.Cfg.Alpha, prev.Cfg.Iterations(), nb)
		e.affState = st
	}
	stats.AffinitySeconds = e.met.observeStage(stageAffinity, t0)
	stats.AffinityIncremental = affUp.Incremental
	stats.AffinityFrontier = affUp.FrontierF + affUp.FrontierB
	e.met.affFrontier.Set(float64(stats.AffinityFrontier))
	if affUp.Incremental {
		e.met.affPassIncr.Inc()
		e.met.affDurIncr.ObserveSeconds(stats.AffinitySeconds)
	} else {
		e.met.affPassFull.Inc()
		e.met.affDurFull.ObserveSeconds(stats.AffinitySeconds)
	}
	t0 = time.Now()
	var emb *core.Embedding
	if incremental {
		emb = core.RefineRowsFromState(st, prev.Emb, prev.Cfg, e.sweeps, nb, touched)
	} else {
		f, b := st.Affinity(nb)
		emb = core.RefineFrom(prev.Emb, f, b, prev.Cfg, e.sweeps, nb)
	}
	stats.CCDSeconds = e.met.observeStage(stageCCD, t0)
	e.met.ccdDur.ObserveSeconds(stats.CCDSeconds)
	t0 = time.Now()
	next := &Model{
		Version: stats.Version,
		Cfg:     prev.Cfg,
		Graph:   g,
		Emb:     emb,
		Scorer:  prev.Scorer.For(emb),
	}
	stats.ScorerSeconds = e.met.observeStage(stageScorer, t0)
	e.cur.Store(next)
	e.met.modelVersion.Set(float64(next.Version))
	if incremental {
		e.met.updIncr.Inc()
	} else {
		e.met.updFull.Inc()
	}
	// The model is live immediately; the index catches up asynchronously
	// and queries fall back to the scan path until it publishes. The delta
	// tells the refresh cycle which rows to refresh: a full-sweep update
	// dirties everything, a restricted one only its touched rows — except
	// that any moved Y row shifts the Gram matrix G = YᵀY and with it every
	// link candidate row, so the link space goes full then.
	d, rows := &idxDelta{model: next, at: time.Now()}, g.N+g.D
	if incremental {
		d.dirty = [nSpaces][]int{touched.Nodes, touched.Attrs}
		rows = touched.Rows()
		if len(touched.Attrs) > 0 {
			// An attribute delta moves Y rows and with them G = YᵀY — every
			// link candidate row shifts. When the delta is low-rank relative
			// to the space (2·|Δattrs| < k/2), ship the correction
			// Z += Xb·ΔG instead of poisoning the link space into full
			// rebuilds: the restricted refinement moved exactly
			// touched.Attrs' Y rows, so the correction plus exact
			// recomputation of the dirty node rows reproduces the new
			// candidate matrix up to float round-off.
			if gd := gramFor(prev.Emb, emb, touched.Attrs); gd != nil {
				d.grams = []*core.GramDelta{gd}
				stats.GramCorrection = true
				e.met.gram.Inc()
			} else {
				d.full[linkSpace] = true
			}
		}
	} else {
		d.full = [nSpaces]bool{true, true}
	}
	e.scheduleIndexRebuild(d, rows)
	if e.obs != nil {
		e.obs(stats)
	}
	return next, nil
}

// threads clamps a config's build parallelism to at least 1.
func threads(cfg core.Config) int {
	if cfg.Threads < 1 {
		return 1
	}
	return cfg.Threads
}

// gramFor builds the low-rank link-space correction for an attribute
// delta, or nil when the delta's rank bound 2·|Δattrs| reaches the factor
// width k/2 (at which point correcting every row costs as much as the full
// transform it replaces).
func gramFor(prevEmb, emb *core.Embedding, attrs []int) *core.GramDelta {
	if 2*len(attrs) >= emb.Y.Cols {
		return nil
	}
	gd, err := core.NewGramDelta(prevEmb.Y, emb.Y, attrs)
	if err != nil {
		return nil
	}
	return gd
}

// AffinityStatus reports the model-side incremental-update state for
// monitoring (served under healthz next to the index status).
type AffinityStatus struct {
	// Threshold is the frontier fraction budget in effect.
	Threshold float64 `json:"threshold"`
	// Incremental / Full count updates whose recurrence was patched over
	// the delta's frontier vs re-run from scratch.
	Incremental uint64 `json:"affinity_incremental"`
	Full        uint64 `json:"affinity_full"`
	// FrontierRows is the most recent update's total frontier size (the
	// forward plus backward rows whose recurrence was re-run).
	FrontierRows uint64 `json:"affinity_frontier_rows"`
	// GramCorrections counts attribute updates served through the
	// low-rank link-space correction instead of full rebuilds.
	GramCorrections uint64 `json:"gram_corrections"`
}

// AffinityStatus returns the current model-side update accounting, read
// from the same obs handles GET /metrics exposes.
func (e *Engine) AffinityStatus() AffinityStatus {
	return AffinityStatus{
		Threshold:       e.affinityThreshold,
		Incremental:     e.met.affPassIncr.Value(),
		Full:            e.met.affPassFull.Value(),
		FrontierRows:    uint64(e.met.affFrontier.Value()),
		GramCorrections: e.met.gram.Value(),
	}
}

// touchedDelta collects the rows a graph update directly touches: both
// endpoints of every inserted edge (an update refines a node's forward
// and backward rows together) plus the node and attribute of every
// attribute entry, each sorted and deduplicated. Out-of-range ids were
// already rejected by Graph.WithUpdates.
func touchedDelta(edges []graph.Edge, attrs []graph.AttrEntry) core.UpdateDelta {
	nodeSet := make(map[int]struct{}, 2*len(edges)+len(attrs))
	for _, ed := range edges {
		nodeSet[ed.Src] = struct{}{}
		nodeSet[ed.Dst] = struct{}{}
	}
	attrSet := make(map[int]struct{}, len(attrs))
	for _, a := range attrs {
		nodeSet[a.Node] = struct{}{}
		attrSet[a.Attr] = struct{}{}
	}
	return core.UpdateDelta{Nodes: sortedKeys(nodeSet), Attrs: sortedKeys(attrSet)}
}

func sortedKeys(set map[int]struct{}) []int {
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Snapshot atomically persists the current model as a single bundle file
// and returns the model that was written. It reads the model through the
// same atomic pointer as queries, so a snapshot taken mid-update-stream
// is a consistent point-in-time version, never a torn mix of two. With a
// WAL attached, a completed snapshot also compacts the log up to the
// version the bundle recorded — see compactAfterSnapshot for why that
// watermark, and never the live version, is the safe one.
func (e *Engine) Snapshot(path string) (*Model, error) {
	m := e.Model()
	b := e.bundleFor(m)
	if err := store.SaveBundleFile(path, b); err != nil {
		return nil, err
	}
	if err := e.compactAfterSnapshot(b); err != nil {
		return nil, err
	}
	return m, nil
}

// CurrentBundle assembles (without persisting) the bundle for the
// current model — what the /bundle endpoint streams to followers.
func (e *Engine) CurrentBundle() *store.Bundle {
	return e.bundleFor(e.Model())
}

// bundleFor builds the store bundle encoding model m.
func (e *Engine) bundleFor(m *Model) *store.Bundle {
	b := &store.Bundle{
		ModelVersion: m.Version,
		Cfg:          m.Cfg,
		Xf:           m.Emb.Xf,
		Xb:           m.Emb.Xb,
		Y:            m.Emb.Y,
		Adj:          m.Graph.Adj,
		Attr:         m.Graph.Attr,
		Labels:       m.Graph.Labels,
	}
	if c := e.idxCfg; c != nil {
		// writeIndexMeta normalizes negative tuning values to 0 ("use
		// defaults") so the written bundle always reloads.
		b.Index = &store.IndexMeta{
			IVF: c.IVF, NList: c.NList, NProbe: c.NProbe, Seed: c.Seed, Shards: c.Shards,
			Quantize: c.Quantize, Rerank: c.Rerank, FP16: c.FP16,
		}
	}
	return b
}

// Open restores an Engine from a bundle file written by Snapshot (or by
// cmd/pane). The restored model keeps its version, so monitoring sees the
// same version before and after a restart. A bundle that recorded an
// index configuration restores it too (the index itself is rebuilt, not
// deserialized); caller options run afterwards and may override or
// disable it (WithIndex, WithoutIndex).
func Open(path string, opts ...Option) (*Engine, error) {
	b, err := store.LoadBundleFile(path)
	if err != nil {
		return nil, err
	}
	return FromBundle(b, opts...)
}

// FromBundle restores an Engine from an in-memory bundle — what Open
// does after reading the file, and what a follower does with a bundle
// fetched from its leader.
func FromBundle(b *store.Bundle, opts ...Option) (*Engine, error) {
	g, err := graph.FromCSR(b.Adj, b.Attr, b.Labels)
	if err != nil {
		return nil, err
	}
	emb := &core.Embedding{Xf: b.Xf, Xb: b.Xb, Y: b.Y}
	if im := b.Index; im != nil {
		restore := WithIndex(IndexConfig{
			IVF: im.IVF, NList: im.NList, NProbe: im.NProbe, Seed: im.Seed, Shards: im.Shards,
			Quantize: im.Quantize, Rerank: im.Rerank, FP16: im.FP16,
		})
		opts = append([]Option{restore}, opts...)
	}
	return newEngine(g, emb, b.Cfg, b.ModelVersion, opts)
}
