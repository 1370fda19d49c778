package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/engine"
	"pane/internal/graph"
	"pane/internal/obs"
)

// UpdateOptions configures the update-to-fresh-index comparison of
// RunUpdate. Zero values pick the defaults noted per field.
type UpdateOptions struct {
	N       int   // nodes; 0 → 100000
	D       int   // attributes; 0 → 100
	K       int   // space budget; 0 → 128
	Threads int   // 0 → 1
	Seed    int64 // 0 → 1
	Shards  int   // serving shards; 0 → 4
	// Deltas are the edge-batch sizes of the sweep; nil → {100, 1000,
	// 10000}.
	Deltas []int
	// Repeats is the number of timed repetitions per point (minimum
	// taken); 0 → 2.
	Repeats int
	// Queries is the number of correctness-check queries; 0 → 50.
	Queries int
}

// UpdatePoint is one row of the delta sweep: the same edge batch applied
// through the full path (full affinity recompute + full warm-start
// sweeps + per-shard full index rebuilds) and the delta path
// (frontier-restricted recurrence patch + restricted sweeps +
// incremental per-shard refresh), timed end to end. ModelSeconds is the
// ApplyEdges call (graph merge, affinity work, warm-start refinement,
// publish); IndexSeconds the time from publish until every shard serves
// the new version — the update-to-fresh-index latency the delta pipeline
// exists to shrink. The incremental model time is further broken into
// the engine's own stage times (engine.UpdateStats, the observations
// pane_update_stage_duration_seconds records): graph merge, affinity
// (frontier BFS + recurrence patch), CCD (warm-start coordinate descent)
// and scorer; what remains of the model time is publish and index
// scheduling.
type UpdatePoint struct {
	DeltaEdges int `json:"delta_edges"`
	DirtyRows  int `json:"dirty_rows"` // distinct node rows the batch touches

	FullModelSeconds float64 `json:"full_model_seconds"`
	FullIndexSeconds float64 `json:"full_index_seconds"`
	FullTotalSeconds float64 `json:"full_total_seconds"`
	IncrModelSeconds float64 `json:"incr_model_seconds"`
	IncrIndexSeconds float64 `json:"incr_index_seconds"`
	IncrTotalSeconds float64 `json:"incr_total_seconds"`

	// Incremental model time by engine stage (at most IncrModelSeconds).
	IncrGraphSeconds    float64 `json:"incr_graph_seconds"`
	IncrAffinitySeconds float64 `json:"incr_affinity_seconds"`
	IncrCCDSeconds      float64 `json:"incr_ccd_seconds"`
	IncrScorerSeconds   float64 `json:"incr_scorer_seconds"`
	// AffinityIncremental reports whether the point's recurrence was
	// patched over the delta frontier (false = frontier exceeded the
	// budget and the engine fell back to a full recurrence pass).
	AffinityIncremental bool `json:"affinity_incremental"`
	// AffinityFrontier is the forward+backward frontier row count of the
	// recurrence patch.
	AffinityFrontier int `json:"affinity_frontier"`

	// SpeedupModel is full/incremental ApplyEdges latency; SpeedupIndex
	// full/incremental update-to-fresh-index latency; SpeedupTotal the
	// same for the whole update.
	SpeedupModel float64 `json:"speedup_model"`
	SpeedupIndex float64 `json:"speedup_index"`
	SpeedupTotal float64 `json:"speedup_total"`
}

// AckBreakdown is where a small update's ack goes: the median of each
// engine stage, in milliseconds, over Count consecutive updates of
// EdgesPerUpdate random edges on the incremental engine, each read from
// that update's engine.UpdateStats. SumMs is the median of the per-update
// stage sums. The engines here run without a log, so the WAL stage is
// absent; BENCH_replicate.json has the append cost. The Refresh fields are
// the index refresh the ack wakes, per update, off the engine's registry:
// mean shard refresh time (pane_index_build_duration_seconds) and the work
// counters pane_index_refresh_{bytes_copied,rows_encoded}_total, which
// repeat exactly for a seed.
type AckBreakdown struct {
	Count              int     `json:"count"`
	EdgesPerUpdate     int     `json:"edges_per_update"`
	GraphMs            float64 `json:"graph_ms"`
	AffinityMs         float64 `json:"affinity_ms"`
	CCDMs              float64 `json:"ccd_ms"`
	ScorerMs           float64 `json:"scorer_ms"`
	SumMs              float64 `json:"sum_ms"`
	RefreshMs          float64 `json:"refresh_ms"`
	RefreshBytes       float64 `json:"refresh_bytes"`
	RefreshRowsEncoded float64 `json:"refresh_rows_encoded"`
}

// ackUpdates and ackEdges size the ack breakdown: enough updates for a
// median, each the end-to-end benchmark's write (bench/: 8 edges).
const (
	ackUpdates = 32
	ackEdges   = 8
)

// UpdateBench is the measured comparison emitted as BENCH_update.json by
// `benchexp -exp update`.
type UpdateBench struct {
	N            int     `json:"n"`
	Edges        int     `json:"edges"`
	D            int     `json:"d"`
	K            int     `json:"k"`
	Shards       int     `json:"shards"`
	TrainSeconds float64 `json:"train_seconds"`
	// IndexBuildSeconds is the initial full build both engines start from.
	IndexBuildSeconds float64       `json:"index_build_seconds"`
	Points            []UpdatePoint `json:"points"`
	// Ack is the per-stage ack breakdown of small updates.
	Ack AckBreakdown `json:"ack_ms"`
	// Final healthz counters of the incremental engine: every post-initial
	// shard cycle must have been served incrementally.
	IncrementalRefreshes uint64 `json:"incremental_refreshes"`
	FullRebuilds         uint64 `json:"full_rebuilds"`
	// Model-side counters of the incremental engine (the affinity section
	// of /healthz): recurrence passes by kind across the whole run.
	AffinityIncremental uint64 `json:"affinity_incremental"`
	AffinityFull        uint64 `json:"affinity_full"`

	// Attribute-delta phase: one node-attribute batch absorbed by the
	// low-rank link-space correction instead of a full shard rebuild.
	AttrEntries          int     `json:"attr_entries"`
	AttrAttrs            int     `json:"attr_attrs"` // distinct attributes touched
	AttrFullTotalSeconds float64 `json:"attr_full_total_seconds"`
	AttrIncrTotalSeconds float64 `json:"attr_incr_total_seconds"`
	// AttrRecall is the incremental engine's mean top-10 link recall after
	// the gram-corrected refresh, against a fresh index built around its
	// own model; the run fails below 0.999.
	AttrRecall float64 `json:"attr_recall"`

	// Env is where the run was measured; omitempty so reports written
	// before it existed still load.
	Env *Env `json:"env,omitempty"`
}

// RunUpdate generates a community graph, trains one model, and wraps it
// in two engines with identical index stacks (exact + IVF + quantized
// tiers over Shards shards): one pinned to the full update path (refresh
// and affinity thresholds 0) and one to the delta path (both 1). Each
// sweep point applies the same random edge batches to both and times
// update-to-fresh-index latency; a final node-attribute batch exercises
// the gram-corrected link refresh. The run fails — rather than reporting
// a misleading number — when the incremental engine's refreshed index
// does not answer exactly like a from-scratch build around its own model
// after the edge sweep, or within the 0.999 top-10 recall floor after
// the attribute batch.
func RunUpdate(opt UpdateOptions) (*UpdateBench, error) {
	if opt.N <= 0 {
		opt.N = 100000
	}
	if opt.D <= 0 {
		opt.D = 100
	}
	if opt.K <= 0 {
		opt.K = 128
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Shards <= 0 {
		opt.Shards = 4
	}
	if opt.Deltas == nil {
		opt.Deltas = []int{100, 1000, 10000}
	}
	if opt.Repeats <= 0 {
		opt.Repeats = 2
	}
	if opt.Queries <= 0 {
		opt.Queries = 50
	}

	g, err := datagen.Generate(datagen.Config{
		Name: "updatebench", N: opt.N, AvgOutDeg: 8, D: opt.D, AttrsPer: 6,
		Communities: 50, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.Config{K: opt.K, Alpha: 0.5, Eps: 0.25, Threads: opt.Threads, Seed: opt.Seed}
	start := time.Now()
	emb, err := core.ParallelPANE(g, cfg)
	if err != nil {
		return nil, err
	}
	trainSec := time.Since(start).Seconds()

	idxCfg := engine.IndexConfig{IVF: true, Quantize: true, Shards: opt.Shards}
	// lastStats captures the incremental engine's per-update stats; the
	// observer runs synchronously inside Apply*, so the value is final by
	// the time the call returns.
	var lastStats engine.UpdateStats
	build := func(threshold float64, extra ...engine.Option) (*engine.Engine, float64, error) {
		t0 := time.Now()
		opts := append([]engine.Option{
			engine.WithIndex(idxCfg),
			engine.WithRefreshThreshold(threshold),
		}, extra...)
		eng, err := engine.New(g, emb, cfg, opts...)
		return eng, time.Since(t0).Seconds(), err
	}
	engFull, buildSec, err := build(0)
	if err != nil {
		return nil, err
	}
	engIncr, _, err := build(1, engine.WithAffinityThreshold(1), engine.WithUpdateObserver(func(s engine.UpdateStats) {
		lastStats = s
	}))
	if err != nil {
		return nil, err
	}

	// One timed update: apply the batch, then wait for every shard to
	// serve the new version.
	timeUpdate := func(eng *engine.Engine, edges []graph.Edge) (modelSec, indexSec float64, err error) {
		t0 := time.Now()
		if _, err := eng.ApplyEdges(edges); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		eng.WaitForIndex()
		indexSec = time.Since(t1).Seconds()
		return t1.Sub(t0).Seconds(), indexSec, nil
	}

	b := &UpdateBench{
		N: g.N, Edges: g.M(), D: g.D, K: opt.K, Shards: opt.Shards,
		TrainSeconds: trainSec, IndexBuildSeconds: buildSec,
		Env: CaptureEnv(),
	}
	rng := rand.New(rand.NewSource(opt.Seed + 2))
	for _, delta := range opt.Deltas {
		if delta < 1 {
			continue
		}
		p := UpdatePoint{DeltaEdges: delta}
		// One batch per point, re-applied on every repeat: re-inserting an
		// existing edge still refines and republishes (the update cost does
		// not depend on graph novelty), so the minimum timings and the
		// reported dirty-row count all describe the same batch.
		edges := make([]graph.Edge, delta)
		touched := make(map[int]struct{}, 2*delta)
		for i := range edges {
			edges[i] = graph.Edge{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)}
			touched[edges[i].Src] = struct{}{}
			touched[edges[i].Dst] = struct{}{}
		}
		p.DirtyRows = len(touched)
		for rep := 0; rep < opt.Repeats; rep++ {
			im, ii, err := timeUpdate(engIncr, edges)
			if err != nil {
				return nil, err
			}
			st := lastStats
			fm, fi, err := timeUpdate(engFull, edges)
			if err != nil {
				return nil, err
			}
			if rep == 0 || im+ii < p.IncrTotalSeconds {
				p.IncrModelSeconds, p.IncrIndexSeconds, p.IncrTotalSeconds = im, ii, im+ii
				p.IncrGraphSeconds, p.IncrScorerSeconds = st.GraphSeconds, st.ScorerSeconds
				p.IncrAffinitySeconds, p.IncrCCDSeconds = st.AffinitySeconds, st.CCDSeconds
				p.AffinityIncremental = st.AffinityIncremental
				p.AffinityFrontier = st.AffinityFrontier
			}
			if rep == 0 || fm+fi < p.FullTotalSeconds {
				p.FullModelSeconds, p.FullIndexSeconds, p.FullTotalSeconds = fm, fi, fm+fi
			}
		}
		if p.IncrModelSeconds > 0 {
			p.SpeedupModel = p.FullModelSeconds / p.IncrModelSeconds
		}
		if p.IncrIndexSeconds > 0 {
			p.SpeedupIndex = p.FullIndexSeconds / p.IncrIndexSeconds
		}
		if p.IncrTotalSeconds > 0 {
			p.SpeedupTotal = p.FullTotalSeconds / p.IncrTotalSeconds
		}
		b.Points = append(b.Points, p)
	}

	// The ack path of a small update, stage by stage, from the engine's
	// own timers.
	var graphMs, affMs, ccdMs, scorerMs, sumMs, refreshMs, refreshBytes, refreshRows []float64
	reg := engIncr.Metrics()
	refreshes := reg.Histogram("pane_index_build_duration_seconds", "", obs.L("kind", "incremental"))
	refreshWork := func() (sec float64, cycles, bytes, rows uint64) {
		for _, backend := range []string{engine.BackendExact, engine.BackendSQ8, engine.BackendFP16,
			engine.BackendIVF, engine.BackendIVFSQ, engine.BackendIVFFP16} {
			rows += reg.Counter("pane_index_refresh_rows_encoded_total", "", obs.L("backend", backend)).Value()
		}
		return refreshes.Sum(), refreshes.Count(), reg.Counter("pane_index_refresh_bytes_copied_total", "").Value(), rows
	}
	for i := 0; i < ackUpdates; i++ {
		edges := make([]graph.Edge, ackEdges)
		for j := range edges {
			edges[j] = graph.Edge{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)}
		}
		sec0, cycles0, bytes0, rows0 := refreshWork()
		if _, _, err := timeUpdate(engIncr, edges); err != nil {
			return nil, err
		}
		sec1, cycles1, bytes1, rows1 := refreshWork()
		refreshMs = append(refreshMs, (sec1-sec0)*1e3/float64(max(1, cycles1-cycles0)))
		refreshBytes = append(refreshBytes, float64(bytes1-bytes0))
		refreshRows = append(refreshRows, float64(rows1-rows0))
		st := lastStats
		graphMs = append(graphMs, st.GraphSeconds*1e3)
		affMs = append(affMs, st.AffinitySeconds*1e3)
		ccdMs = append(ccdMs, st.CCDSeconds*1e3)
		scorerMs = append(scorerMs, st.ScorerSeconds*1e3)
		sumMs = append(sumMs, (st.GraphSeconds+st.AffinitySeconds+st.CCDSeconds+st.ScorerSeconds)*1e3)
	}
	b.Ack = AckBreakdown{
		Count: ackUpdates, EdgesPerUpdate: ackEdges,
		GraphMs: median(graphMs), AffinityMs: median(affMs), CCDMs: median(ccdMs),
		ScorerMs: median(scorerMs), SumMs: median(sumMs),
		RefreshMs: median(refreshMs), RefreshBytes: median(refreshBytes), RefreshRowsEncoded: median(refreshRows),
	}

	// Report integrity. The incremental engine must (a) have served every
	// post-initial cycle incrementally, (b) answer bit-for-bit like a
	// fresh build around its own final model for exact and sq8, and (c)
	// degenerate to its exact answer at full IVF probe — the refreshed
	// inverted lists lost nobody.
	// Compare against the ACTUAL shard count (the layout may collapse to
	// fewer shards than requested on tiny graphs), not the requested one.
	st := engIncr.IndexStatus()
	b.IncrementalRefreshes = st.IncrementalRefreshes
	b.FullRebuilds = st.FullRebuilds
	if st.FullRebuilds != uint64(st.Shards) {
		return nil, fmt.Errorf("experiments: incremental engine fell back to full rebuilds (%d cycles vs the %d initial builds): delta pipeline is broken",
			st.FullRebuilds, st.Shards)
	}
	if st.IncrementalRefreshes == 0 {
		return nil, fmt.Errorf("experiments: incremental engine recorded no incremental refreshes")
	}
	m := engIncr.Model()
	fresh, err := engine.New(m.Graph, m.Emb, m.Cfg, engine.WithIndex(idxCfg))
	if err != nil {
		return nil, err
	}
	nlist := engIncr.IndexStatus().NList
	qrng := rand.New(rand.NewSource(opt.Seed + 3))
	for i := 0; i < opt.Queries; i++ {
		u := qrng.Intn(g.N)
		for _, mode := range []string{engine.ModeExact, engine.ModeSQ8} {
			want, err := fresh.TopLinks(u, 10, mode, 0)
			if err != nil {
				return nil, err
			}
			got, err := engIncr.TopLinks(u, 10, mode, 0)
			if err != nil {
				return nil, err
			}
			if err := sameScored("refreshed "+mode, u, want.Results, got.Results); err != nil {
				return nil, err
			}
		}
		exact, err := engIncr.TopLinks(u, 10, engine.ModeExact, 0)
		if err != nil {
			return nil, err
		}
		probeAll, err := engIncr.TopLinks(u, 10, engine.ModeIVF, nlist)
		if err != nil {
			return nil, err
		}
		if err := sameScored("refreshed ivf full-probe", u, exact.Results, probeAll.Results); err != nil {
			return nil, err
		}
	}

	// Attribute-delta phase. One node-attribute batch over a handful of
	// distinct attributes, applied to both engines after the edge sweep.
	// The incremental engine must absorb it without a single full shard
	// rebuild (low-rank gram correction of the link space), and its
	// refreshed top-k must stay within the recall floor of a fresh build
	// around its own model — bit-identity is out of reach here because the
	// correction accumulates ~1 ulp against a from-scratch transform.
	nAttrs := opt.K/4 - 1 // gram viability bound: 2·|Δattrs| < K/2
	if nAttrs > 16 {
		nAttrs = 16
	}
	if nAttrs > g.D {
		nAttrs = g.D
	}
	if nAttrs < 1 {
		nAttrs = 1
	}
	nEntries := opt.N / 100
	if nEntries < 20 {
		nEntries = 20
	}
	attrIDs := rng.Perm(g.D)[:nAttrs]
	entries := make([]graph.AttrEntry, nEntries)
	for i := range entries {
		entries[i] = graph.AttrEntry{
			Node: rng.Intn(g.N), Attr: attrIDs[rng.Intn(nAttrs)], Weight: 1,
		}
	}
	b.AttrEntries, b.AttrAttrs = nEntries, nAttrs
	timeAttrs := func(eng *engine.Engine) (float64, error) {
		t0 := time.Now()
		if _, err := eng.ApplyAttrs(entries); err != nil {
			return 0, err
		}
		eng.WaitForIndex()
		return time.Since(t0).Seconds(), nil
	}
	if b.AttrIncrTotalSeconds, err = timeAttrs(engIncr); err != nil {
		return nil, err
	}
	if !lastStats.Incremental || !lastStats.GramCorrection {
		return nil, fmt.Errorf("experiments: attr delta took the full path (incremental=%v gram=%v): link-space correction is broken",
			lastStats.Incremental, lastStats.GramCorrection)
	}
	if b.AttrFullTotalSeconds, err = timeAttrs(engFull); err != nil {
		return nil, err
	}
	if st := engIncr.IndexStatus(); st.FullRebuilds != uint64(st.Shards) {
		return nil, fmt.Errorf("experiments: attr delta triggered full shard rebuilds (%d vs the %d initial builds)",
			st.FullRebuilds, st.Shards)
	}
	m = engIncr.Model()
	fresh, err = engine.New(m.Graph, m.Emb, m.Cfg, engine.WithIndex(idxCfg))
	if err != nil {
		return nil, err
	}
	var recallSum float64
	for i := 0; i < opt.Queries; i++ {
		u := qrng.Intn(g.N)
		want, err := fresh.TopLinks(u, 10, engine.ModeExact, 0)
		if err != nil {
			return nil, err
		}
		got, err := engIncr.TopLinks(u, 10, engine.ModeExact, 0)
		if err != nil {
			return nil, err
		}
		recallSum += recallScored(want.Results, got.Results)
	}
	b.AttrRecall = recallSum / float64(opt.Queries)
	if b.AttrRecall < 0.999 {
		return nil, fmt.Errorf("experiments: gram-corrected top-10 recall %.4f below the 0.999 floor", b.AttrRecall)
	}

	as := engIncr.AffinityStatus()
	b.AffinityIncremental, b.AffinityFull = as.Incremental, as.Full
	return b, nil
}

// median returns the middle of xs (the upper one of an even count),
// sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func recallScored(want, got []core.Scored) float64 {
	if len(want) == 0 {
		return 1
	}
	ids := make(map[int]bool, len(got))
	for _, s := range got {
		ids[s.ID] = true
	}
	hit := 0
	for _, s := range want {
		if ids[s.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func deltaSizes(points []UpdatePoint) []int {
	out := make([]int, len(points))
	for i, p := range points {
		out[i] = p.DeltaEdges
	}
	return out
}

func sameScored(label string, u int, want, got []core.Scored) error {
	if len(want) != len(got) {
		return fmt.Errorf("experiments: %s top-k of u=%d diverges: %d results vs %d",
			label, u, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("experiments: %s top-k of u=%d diverges at rank %d: %v != %v",
				label, u, i, got[i], want[i])
		}
	}
	return nil
}

// PrintUpdate renders the sweep as a table.
func PrintUpdate(w io.Writer, b *UpdateBench) {
	fmt.Fprintf(w, "Update-to-fresh-index: n=%d m=%d d=%d k=%d, %d shards (train %.1fs, initial build %.1fs)\n",
		b.N, b.Edges, b.D, b.K, b.Shards, b.TrainSeconds, b.IndexBuildSeconds)
	fmt.Fprintf(w, "%-8s %-8s | %10s %10s %10s | %10s %10s %10s | %10s %10s %10s %10s | %8s %8s %8s\n",
		"Δedges", "dirty", "full mdl", "full idx", "full tot", "incr mdl", "incr idx", "incr tot",
		"graph", "aff", "ccd", "scorer", "mdl spd", "idx spd", "tot spd")
	for _, p := range b.Points {
		fmt.Fprintf(w, "%-8d %-8d | %9.3fs %9.3fs %9.3fs | %9.3fs %9.3fs %9.3fs | %9.4fs %9.4fs %9.4fs %9.4fs | %7.1fx %7.1fx %7.1fx\n",
			p.DeltaEdges, p.DirtyRows,
			p.FullModelSeconds, p.FullIndexSeconds, p.FullTotalSeconds,
			p.IncrModelSeconds, p.IncrIndexSeconds, p.IncrTotalSeconds,
			p.IncrGraphSeconds, p.IncrAffinitySeconds, p.IncrCCDSeconds, p.IncrScorerSeconds,
			p.SpeedupModel, p.SpeedupIndex, p.SpeedupTotal)
	}
	fmt.Fprintf(w, "ack of a %d-edge update by stage (median ms over %d): graph %.3f, affinity %.3f, ccd %.3f, scorer %.3f, sum %.3f; the refresh behind it: %.3f ms a shard, %.0f bytes copied, %.0f rows encoded\n",
		b.Ack.EdgesPerUpdate, b.Ack.Count, b.Ack.GraphMs, b.Ack.AffinityMs, b.Ack.CCDMs, b.Ack.ScorerMs, b.Ack.SumMs,
		b.Ack.RefreshMs, b.Ack.RefreshBytes, b.Ack.RefreshRowsEncoded)
	fmt.Fprintf(w, "incremental engine: %d incremental refreshes, %d full builds (initial only); %d affinity patches, %d full recurrence passes\n",
		b.IncrementalRefreshes, b.FullRebuilds, b.AffinityIncremental, b.AffinityFull)
	fmt.Fprintf(w, "attr delta: %d entries over %d attrs, full %.3fs vs incr %.3fs (gram-corrected, recall %.4f)\n",
		b.AttrEntries, b.AttrAttrs, b.AttrFullTotalSeconds, b.AttrIncrTotalSeconds, b.AttrRecall)
	printEnv(w, b.Env)
}

// CheckUpdateBaseline is the CI regression gate for the update path: it
// compares cur against a committed baseline and fails when the
// incremental-vs-full speedup (a same-machine ratio, so runner hardware
// drops out exactly as in CheckTopKBaseline) regressed by more than tol
// on any delta size both reports measured, or when the incremental
// pipeline stopped serving updates incrementally at all.
func CheckUpdateBaseline(cur, base *UpdateBench, tol float64) error {
	if tol < 0 {
		return fmt.Errorf("experiments: negative tolerance %v", tol)
	}
	if cur.IncrementalRefreshes == 0 {
		return fmt.Errorf("experiments: update gate: no incremental refreshes recorded")
	}
	if cur.AffinityIncremental == 0 {
		return fmt.Errorf("experiments: update gate: no incremental affinity passes recorded — model-side delta path is dead")
	}
	basePoints := make(map[int]UpdatePoint, len(base.Points))
	for _, p := range base.Points {
		basePoints[p.DeltaEdges] = p
	}
	var failures []string
	compared := 0
	for _, p := range cur.Points {
		bp, ok := basePoints[p.DeltaEdges]
		if !ok {
			continue
		}
		compared++
		if bp.SpeedupModel > 0 && p.SpeedupModel < bp.SpeedupModel*(1-tol) {
			failures = append(failures, fmt.Sprintf(
				"Δ=%d model speedup %.1fx dropped more than %.0f%% below baseline %.1fx",
				p.DeltaEdges, p.SpeedupModel, tol*100, bp.SpeedupModel))
		}
		if bp.SpeedupIndex > 0 && p.SpeedupIndex < bp.SpeedupIndex*(1-tol) {
			failures = append(failures, fmt.Sprintf(
				"Δ=%d index speedup %.1fx dropped more than %.0f%% below baseline %.1fx",
				p.DeltaEdges, p.SpeedupIndex, tol*100, bp.SpeedupIndex))
		}
		if bp.SpeedupTotal > 0 && p.SpeedupTotal < bp.SpeedupTotal*(1-tol) {
			failures = append(failures, fmt.Sprintf(
				"Δ=%d total speedup %.1fx dropped more than %.0f%% below baseline %.1fx",
				p.DeltaEdges, p.SpeedupTotal, tol*100, bp.SpeedupTotal))
		}
	}
	if compared == 0 {
		// A delta-set drift between the run and the committed baseline
		// must not pass as a vacuously green gate.
		return fmt.Errorf("experiments: update gate compared no points: run measured %v, baseline has %v — regenerate the baseline",
			deltaSizes(cur.Points), deltaSizes(base.Points))
	}
	if len(failures) == 0 {
		return nil
	}
	msg := "experiments: update-path perf regression vs baseline:"
	for _, f := range failures {
		msg += "\n  - " + f
	}
	return fmt.Errorf("%s", msg)
}
