package engine

import (
	"time"

	"pane/internal/index"
	"pane/internal/obs"
)

// engineMetrics is the engine's full metric surface, resolved against one
// obs.Registry at construction so the hot paths record through pre-looked-
// up handles (an atomic add, never a map lookup). IndexStatus and
// AffinityStatus read the same handles — /healthz and /metrics report from
// the same cells and cannot disagree.
type engineMetrics struct {
	reg *obs.Registry

	// Update pipeline (apply).
	updIncr      *obs.Counter // updates taking the delta path
	updFull      *obs.Counter
	lastDelta    *obs.Gauge // dirty rows of the most recent update
	affPassIncr  *obs.Counter
	affPassFull  *obs.Counter
	affDurIncr   *obs.Histogram
	affDurFull   *obs.Histogram
	ccdDur       *obs.Histogram
	updStage     [nUpdateStages]*obs.Histogram // the ack path, stage by stage
	affFrontier  *obs.Gauge
	gram         *obs.Counter
	modelVersion *obs.Gauge

	// Failover / fencing.
	epoch   *obs.Gauge   // fencing epoch the engine writes at
	deposed *obs.Gauge   // 1 while a newer epoch has been observed
	fenced  *obs.Counter // writes refused with ErrFenced

	// Index builds, one per shard per refresh cycle.
	buildIncr    *obs.Counter
	buildFull    *obs.Counter
	buildDurIncr *obs.Histogram
	buildDurFull *obs.Histogram
	// What shard generations cost in work, not time (index.Work), and the
	// window in which top-k reads scan: from a model's publish to the
	// consistent cut at its version.
	rowsEncoded [nLayouts][index.NumCodecs]*obs.Counter
	bytesCopied *obs.Counter
	publishLag  *obs.Histogram

	// Query stages, one observation per single query: fan-out covers the
	// parallel row scans, merge the combination of their contributions,
	// scan the brute-force fallback when no fresh consistent shard cut
	// exists. A batch's top-k members are scanned together, so they record
	// one batch_scan observation per batch, beside how many they were.
	stageFanout    *obs.Histogram
	stageMerge     *obs.Histogram
	stageScan      *obs.Histogram
	stageBatchScan *obs.Histogram
	batchQueries   *obs.Histogram

	// Index work by answering backend: (query, row) pairs scored, those of
	// them scored from the float64 row, and bytes walked — a batch walks a
	// row's encoding once for all its members.
	rowsScored    [nLayouts][index.NumCodecs]*obs.Counter
	rowsReranked  [nLayouts][index.NumCodecs]*obs.Counter
	bytesStreamed [nLayouts][index.NumCodecs]*obs.Counter
}

// The stages of one update's ack path, in order; see observeStage.
const (
	stageGraph = iota
	stageWAL
	stageAffinity
	stageCCD
	stageScorer
	nUpdateStages
)

var updateStageNames = [nUpdateStages]string{"graph", "wal", "affinity", "ccd", "scorer"}

// observeStage records the time since start as one observation of an
// update stage and returns it in seconds, for UpdateStats — one stopwatch
// for /metrics, the update observer and the benchmarks.
func (m *engineMetrics) observeStage(stage int, start time.Time) float64 {
	sec := time.Since(start).Seconds()
	m.updStage[stage].ObserveSeconds(sec)
	return sec
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	const (
		updHelp   = "Applied model updates by pipeline path."
		affHelp   = "Affinity recurrence passes by kind (patched over the delta frontier vs full recompute)."
		affDur    = "Affinity phase wall time per update, by kind."
		buildHelp = "Per-shard index build cycles by kind (incremental refresh vs full rebuild)."
		buildDur  = "Per-shard index build wall time, by kind."
		stageHelp = "Top-k query stage wall time (shard fan-out, partial merge, brute-force scan fallback; batch_scan is per batch, the others per query)."
		rowsHelp  = "Query-row pairs scored by the index, by answering backend."
		rrHelp    = "Query-row pairs the index scored from the float64 row, by answering backend: rows an exact cell's int8 bound could not rule out, an int8 cell's re-ranked survivors."
		bytesHelp = "Candidate bytes the index walked, by answering backend: encoded rows once per batch however many members scored them, plus 8 bytes per dimension for each float64 re-score."
	)
	// Info gauge: one always-1 series per kernel, labeled with the
	// instruction set it dispatches to, so dashboards can tell at a
	// glance whether a host is serving from its SIMD or generic paths.
	for op, isa := range KernelDispatch() {
		reg.Gauge("pane_kernel_dispatch",
			"Active instruction set per compute kernel (1 = this op dispatches to this ISA).",
			obs.L("op", op), obs.L("isa", isa)).Set(1)
	}
	m := &engineMetrics{
		reg:     reg,
		updIncr: reg.Counter("pane_updates_total", updHelp, obs.L("path", "incremental")),
		updFull: reg.Counter("pane_updates_total", updHelp, obs.L("path", "full")),
		lastDelta: reg.Gauge("pane_update_last_delta_rows",
			"Dirty rows (nodes + attributes) of the most recent update's delta."),
		affPassIncr: reg.Counter("pane_update_affinity_passes_total", affHelp, obs.L("kind", "incremental")),
		affPassFull: reg.Counter("pane_update_affinity_passes_total", affHelp, obs.L("kind", "full")),
		affDurIncr:  reg.Histogram("pane_update_affinity_duration_seconds", affDur, obs.L("kind", "incremental")),
		affDurFull:  reg.Histogram("pane_update_affinity_duration_seconds", affDur, obs.L("kind", "full")),
		ccdDur: reg.Histogram("pane_update_ccd_duration_seconds",
			"CCD refinement wall time per update."),
		affFrontier: reg.Gauge("pane_update_affinity_frontier_rows",
			"Total frontier rows (forward + backward) of the most recent affinity patch."),
		gram: reg.Counter("pane_update_gram_corrections_total",
			"Attribute updates served through the low-rank Gram correction instead of a full link-space rebuild."),
		modelVersion: reg.Gauge("pane_model_version",
			"Version of the currently served model."),
		epoch: reg.Gauge("pane_model_epoch",
			"Fencing epoch the engine writes (or accepts records) at; failover promotions bump it."),
		deposed: reg.Gauge("pane_model_deposed",
			"1 while a newer fencing epoch has been observed: writes are refused, reads keep serving."),
		fenced: reg.Counter("pane_fencing_rejections_total",
			"Writes and replicated records refused because their fencing epoch was superseded."),
		buildIncr:    reg.Counter("pane_index_build_cycles_total", buildHelp, obs.L("kind", "incremental")),
		buildFull:    reg.Counter("pane_index_build_cycles_total", buildHelp, obs.L("kind", "full")),
		buildDurIncr: reg.Histogram("pane_index_build_duration_seconds", buildDur, obs.L("kind", "incremental")),
		buildDurFull: reg.Histogram("pane_index_build_duration_seconds", buildDur, obs.L("kind", "full")),
		bytesCopied: reg.Counter("pane_index_refresh_bytes_copied_total",
			"Bytes of rows, ids, codes and page slices a shard generation wrote rather than shared with its parent."),
		publishLag: reg.Histogram("pane_index_publish_lag_seconds",
			"Time from a model version's publish to the consistent shard cut at that version; top-k reads scan meanwhile."),
		stageFanout: reg.Histogram("pane_query_stage_duration_seconds", stageHelp, obs.L("stage", "fanout")),
		stageMerge:  reg.Histogram("pane_query_stage_duration_seconds", stageHelp, obs.L("stage", "merge")),
		stageScan:   reg.Histogram("pane_query_stage_duration_seconds", stageHelp, obs.L("stage", "scan")),

		stageBatchScan: reg.Histogram("pane_query_stage_duration_seconds", stageHelp, obs.L("stage", "batch_scan")),
		batchQueries: reg.CountHistogram("pane_batch_queries",
			"Top-k queries of one batch answered through the index in one pass."),
	}
	for st, name := range updateStageNames {
		m.updStage[st] = reg.Histogram("pane_update_stage_duration_seconds",
			"Wall time of one update's ack path by stage: graph merge, WAL append, affinity, CCD refinement, scorer.",
			obs.L("stage", name))
	}
	for l := range backends {
		for c, backend := range backends[l] {
			m.rowsScored[l][c] = reg.Counter("pane_index_rows_scored_total", rowsHelp, obs.L("backend", backend))
			m.rowsReranked[l][c] = reg.Counter("pane_index_rows_reranked_total", rrHelp, obs.L("backend", backend))
			m.bytesStreamed[l][c] = reg.Counter("pane_index_bytes_streamed_total", bytesHelp, obs.L("backend", backend))
			m.rowsEncoded[l][c] = reg.Counter("pane_index_refresh_rows_encoded_total",
				"Rows encoded producing shard generations, by cell; a refresh encodes its dirty rows.", obs.L("backend", backend))
		}
	}
	return m
}

// The recorders are nil-safe because Model methods run with a nil
// *engineMetrics when invoked outside an engine (Model.Execute), and
// obs.StartSpan over a nil histogram is a no-op.

func (m *engineMetrics) scanHist() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.stageScan
}

// recordSearch records one single-query index search: its two stages and
// its work.
func (m *engineMetrics) recordSearch(c cell, st index.Stats) {
	if m == nil {
		return
	}
	m.stageFanout.Observe(st.Fanout)
	m.stageMerge.Observe(st.Merge)
	m.recordWork(c, st)
}

// recordWork adds a search's rows and bytes to its backend's counters.
func (m *engineMetrics) recordWork(c cell, st index.Stats) {
	if m == nil {
		return
	}
	m.rowsScored[c.layout][c.codec].Add(uint64(st.RowsScored))
	m.rowsReranked[c.layout][c.codec].Add(uint64(st.Reranked))
	m.bytesStreamed[c.layout][c.codec].Add(uint64(st.BytesStreamed))
}

// recordBuildWork adds the work of a space's freshly produced cells and
// the bytes copied to make the rows they index.
func (m *engineMetrics) recordBuildWork(cs *cells, copied int64) {
	for l := range cs {
		for c, t := range cs[l] {
			if t != nil {
				w := t.Work()
				m.rowsEncoded[l][c].Add(uint64(w.RowsEncoded))
				copied += w.BytesCopied
			}
		}
	}
	m.bytesCopied.Add(uint64(copied))
}

// recordBatch records one batch's index pass: how long its n top-k
// members took together.
func (m *engineMetrics) recordBatch(n int, d time.Duration) {
	if m == nil {
		return
	}
	m.stageBatchScan.Observe(d)
	m.batchQueries.ObserveCount(n)
}

// WithMetricsRegistry records the engine's metrics into reg instead of a
// fresh per-engine registry — the way a server shares one registry between
// the engine and its HTTP middleware so GET /metrics exposes both.
func WithMetricsRegistry(reg *obs.Registry) Option {
	return func(e *Engine) {
		if reg != nil {
			e.reg = reg
		}
	}
}

// Metrics returns the registry this engine records into (never nil).
// Serving layers expose it (obs.Registry.Handler) and read snapshots from
// it; its counters are the same cells IndexStatus and AffinityStatus
// report.
func (e *Engine) Metrics() *obs.Registry { return e.reg }
