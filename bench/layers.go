package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pane/internal/core"
	"pane/internal/engine"
	"pane/internal/index"
	"pane/internal/mat"
	"pane/internal/store"
	"pane/internal/wal"
)

// The engine's top-links modes, and the index kinds behind them (the
// plain IVF kind has no engine mode in the workloads; it is timed at the
// index boundary only).
var (
	engineModes = []string{engine.ModeExact, engine.ModeSQ8, engine.ModeFP16, engine.ModeIVFSQ, engine.ModeIVFFP16}
	indexKinds  = []string{index.KindExact, index.KindSQ8, index.KindFP16, index.KindIVF, index.KindIVFSQ, index.KindIVFFP16}
)

// perLayer is what a traced run reports on every workload, in
// BENCHMARK.json's order. Nothing here is gated: the numbers say where an
// end-to-end figure is spent.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"server.transport_ms", "ms"},
		{"server.self_ms", "ms"},
		{"server.batch_self_ms", "ms"},
		{"server.allocs_per_op", "count"},
	}
	for _, m := range engineModes {
		defs = append(defs, metricDef{"engine.self_ms." + m, "ms"})
	}
	for _, m := range engineModes {
		defs = append(defs, metricDef{"engine.allocs_per_query." + m, "count"})
	}
	defs = append(defs,
		metricDef{"engine.fallback_share", "ratio"},
		metricDef{"engine.batch_exec_ms", "ms"},
		metricDef{"engine.batch_speedup", "ratio"},
		metricDef{"engine.apply_self_ms", "ms"},
		metricDef{"engine.index_refresh_ms", "ms"},
		metricDef{"engine.index_build_s", "s"},
	)
	for _, k := range indexKinds {
		defs = append(defs, metricDef{"index.search_ms." + k, "ms"})
	}
	defs = append(defs,
		metricDef{"index.fanout_ms", "ms"},
		metricDef{"index.merge_ms", "ms"},
		metricDef{"index.scan_gbps.exact", "GB/s"},
		metricDef{"index.scan_gbps.sq8", "GB/s"},
		metricDef{"index.scan_gbps.fp16", "GB/s"},
		metricDef{"mat.dot_scan_ms", "ms"},
		metricDef{"mat.dot_gbps", "GB/s"},
		metricDef{"mat.batch_gemm_ms", "ms"},
		metricDef{"core.affinity_s", "s"},
		metricDef{"core.svdccd_s", "s"},
		metricDef{"core.update_affinity_ms", "ms"},
		metricDef{"core.update_ccd_ms", "ms"},
		metricDef{"core.affinity_incremental_share", "ratio"},
		metricDef{"core.topk_scan_ms", "ms"},
		metricDef{"graph.with_updates_ms", "ms"},
		metricDef{"wal.append_ms", "ms"},
		metricDef{"wal.append_nosync_ms", "ms"},
		metricDef{"wal.bytes_per_record", "B"},
		metricDef{"wal.read_from_ms", "ms"},
		metricDef{"replica.sync_once_ms", "ms"},
		metricDef{"replica.bundle_fetches", "count"},
		metricDef{"replica.bootstrap_s", "s"},
		metricDef{"store.bundle_write_s", "s"},
		metricDef{"store.bundle_read_s", "s"},
		metricDef{"store.bundle_mb", "MB"},
		metricDef{"datagen.generate_s", "s"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.heap_mb", "MB"},
		metricDef{"trace.overhead_share", "ratio"},
		metricDef{"trace.self_sum_ratio", "ratio"},
		metricDef{"write.ack_p50_ms", "ms"},
		metricDef{"write.first_ack_ms", "ms"},
	)
	return defs
}

// tracer is the state of one traced run.
type tracer struct {
	f      *fixture
	rec    *recorder
	th     *tracedHandler
	rep    *report
	out    map[string]float64 // per-layer metric values by name
	checks int                // harness-built answers compared with the engine's
	diffs  int                // of which differed
}

// traced performs the traced run: one set-up with its split, the
// workload's own op sequence replayed serially with a span at every layer
// boundary, a layer sweep that is the same on every workload (so every
// per-layer metric exists on each), a short untraced window for the
// runtime and fallback figures, and a serial write section.
func traced(sp spec, rep *report, dir, workDir string) error {
	t := &tracer{rec: newRecorder(), rep: rep, out: map[string]float64{}}
	t.th = &tracedHandler{rec: t.rec}
	f, err := newFixture(sp, rep.Seed, false, workDir, func(h http.Handler) http.Handler {
		t.th.next = h
		return t.th
	})
	if err != nil {
		return err
	}
	defer f.close()
	t.f = f
	rep.Env = stamp(f)
	t.out["datagen.generate_s"] = f.timing.Generate
	t.out["core.affinity_s"] = f.timing.Affinity
	t.out["core.svdccd_s"] = f.timing.SVDCCD
	t.out["engine.index_build_s"] = f.timing.IndexBuild

	// Everything that compares harness-built indexes with the engine's
	// runs first, while the engine still serves its from-scratch build
	// (an incrementally refreshed IVF keeps its old coarse quantizer and
	// answers differently from a fresh one).
	li := buildLayerIndexes(f.eng.Model())
	t.replay(li)
	t.sweepReads(li)
	t.sweepBatch(li)

	mixed := rep.Workload == wlMixedRW
	window := time.Duration(rep.Seconds * 0.4 * float64(time.Second))
	var m *measurement
	if !mixed {
		m = measure(f, rep.Workload, window)
	}
	if err := t.bundleAndBootstrap(mixed); err != nil {
		return err
	}
	if mixed {
		m = measure(f, rep.Workload, window)
		f.stopTail()
	}
	if err := t.sweepWrites(); err != nil {
		return err
	}
	if first, ok := m.Extra["first_write_ack_ms"]; ok {
		// mixed_rw's window already made the first write after the start,
		// the one that pays the full affinity pass; the sweep's came later.
		t.out["write.first_ack_ms"] = first.Value
	}

	rep.fill(m, rep.Workload)
	t.out["engine.fallback_share"] = m.fallbackShare()
	t.out["runtime.gc_cycles"] = m.GCCycles
	t.out["runtime.gc_pause_ms"] = m.GCPauseMS
	t.out["runtime.heap_mb"] = m.HeapMB
	rep.Outcome.Attempted += t.checks
	rep.Outcome.Failed += t.diffs
	if t.diffs > 0 {
		rep.Outcome.Correct = false
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d of %d harness-built index answers differed from the engine's", t.diffs, t.checks))
	}

	rep.Outcome.Metrics = map[string]metric{}
	for _, d := range perLayer {
		v, ok := t.out[d.name]
		if !ok {
			return fmt.Errorf("traced run produced no %s", d.name)
		}
		rep.Outcome.Metrics[d.name] = metric{v, d.unit}
	}
	path := filepath.Join(dir, "trace_"+rep.Workload+".json")
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans written to %s", len(t.rec.spans), path))
	return writeTrace(path, traceFile{Workload: rep.Workload, Seed: rep.Seed, Env: rep.Env, Spans: t.rec.spans})
}

// layerIndexes are the harness's own indexes over the model's candidate
// matrix: one unsharded index per kind, timed directly, and a two-shard
// replica of what the engine builds, whose answers must equal the
// engine's.
type layerIndexes struct {
	model   *engine.Model
	z       *mat.Dense
	flat    map[string]index.Index
	sharded map[string][]index.Index
}

func buildKinds(z *mat.Dense, seed int64) map[string]index.Index {
	iv := index.BuildIVF(z, index.IVFConfig{Seed: seed, Threads: 1})
	return map[string]index.Index{
		index.KindExact:   index.NewExact(z, 1),
		index.KindSQ8:     index.NewSQ8(z, 0, 1),
		index.KindFP16:    index.NewFP16(z, 1),
		index.KindIVF:     iv,
		index.KindIVFSQ:   index.NewIVFSQ(iv, z, 0),
		index.KindIVFFP16: index.NewIVFFP16(iv, z),
	}
}

func buildLayerIndexes(m *engine.Model) *layerIndexes {
	li := &layerIndexes{
		model: m, z: m.Scorer.TransformedCandidates(threads),
		sharded: map[string][]index.Index{},
	}
	li.flat = buildKinds(li.z, m.Cfg.Seed)
	// The engine's layout: contiguous row shards, each built with the
	// build parallelism divided across them (2 threads / 2 shards).
	for _, r := range mat.SplitRanges(m.Nodes(), 2) {
		shard := buildKinds(m.Scorer.TransformedCandidatesRange(r[0], r[1], 1), m.Cfg.Seed)
		for kind, idx := range shard {
			li.sharded[kind] = append(li.sharded[kind], index.Shift(idx, r[0]))
		}
	}
	return li
}

func sameScored(a, b []core.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (t *tracer) expectSame(what string, got, want []core.Scored) {
	t.checks++
	if !sameScored(got, want) {
		t.diffs++
		if t.diffs == 1 {
			t.rep.Notes = append(t.rep.Notes, fmt.Sprintf("first difference: %s: harness %v, engine %v", what, ids(got), ids(want)))
		}
	}
}

// span times fn and records it; replayed spans hang under parent.
func (t *tracer) span(name string, op, parent int, replayed bool, fn func()) (id int, d time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.rec.add(name, op, parent, start, end, replayed), end.Sub(start)
}

// replay sends the first ops of the workload's own sequence one at a
// time, first untraced (the overhead baseline), then with a span at each
// boundary: the loopback round trip, ServeHTTP inside it, then — on the
// same input, right after — the engine call the handler made and the
// sharded index search the engine made.
func (t *tracer) replay(li *layerIndexes) {
	f := t.f
	count := f.spec.TraceOps
	if t.rep.Workload == wlBatch {
		count = f.spec.TraceBatches
	}
	ops := newOpGen(t.rep.Workload, f.seed, streamLeaderReads, f.g.N).take(count)
	cn := dial(f.leader.url)
	defer cn.close()

	var plain, withSpans []float64
	for _, o := range ops {
		start := time.Now()
		_, _, _ = cn.do(o) // failures show in the traced pass below
		plain = append(plain, ms(time.Since(start)))
	}

	first := len(t.rec.spans)
	for i, o := range ops {
		opID := i + 1
		t.th.op.Store(int64(opID))
		var status int
		var err error
		rt, d := t.span("transport.roundtrip", opID, 0, false, func() { status, _, err = cn.do(o) })
		t.th.op.Store(0)
		withSpans = append(withSpans, ms(d))
		t.checks++
		if err != nil || status != http.StatusOK {
			t.diffs++
			continue
		}
		serve := int(t.th.last.Load())
		t.rec.reparent(serve, rt)
		t.replayInside(li, o, opID, serve)
	}

	self := selfTimes(t.rec.spans[first:])
	byName := map[string][]float64{}
	perOp := map[int]float64{}
	rtDur := map[int]float64{}
	for _, s := range t.rec.spans[first:] {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e6)
		perOp[s.Op] += float64(self[s.ID])
		if s.Name == "transport.roundtrip" {
			rtDur[s.Op] = float64(s.End - s.Start)
		}
	}
	var ratios []float64
	for op, d := range rtDur {
		ratios = append(ratios, perOp[op]/d)
	}
	t.out["server.transport_ms"] = median(byName["transport.roundtrip"])
	t.out["server.self_ms"] = median(byName["server.ServeHTTP"])
	t.out["trace.self_sum_ratio"] = median(ratios)
	t.out["trace.overhead_share"] = median(withSpans)/median(plain) - 1

	// Allocations per request at the handler boundary, with no transport:
	// the same ops into a ResponseRecorder, serially.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, o := range ops {
		serveRecorded(f, o)
	}
	runtime.ReadMemStats(&ms1)
	t.out["server.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(ops))
}

func serveRecorded(f *fixture, o op) *httptest.ResponseRecorder {
	method, target, body := o.request()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	f.srv.ServeHTTP(rr, req)
	return rr
}

// replayInside repeats, under the ServeHTTP span, the calls the handler
// made for o.
func (t *tracer) replayInside(li *layerIndexes, o op, opID, serve int) {
	f := t.f
	switch o.kind {
	case opTopLinks:
		var ans engine.TopKAnswer
		eng, _ := t.span("engine.TopLinks", opID, serve, true, func() { ans, _ = f.eng.TopLinks(o.node, topK, o.mode, 0) })
		var res []core.Scored
		var fan, merge time.Duration
		q := li.model.Emb.Xf.Row(o.node)
		opt := index.Options{Skip: func(id int) bool { return id == o.node }}
		start := time.Now()
		res, fan, merge = index.SearchShardedTimed(li.sharded[o.mode], q, topK, opt)
		end := time.Now()
		idx := t.rec.add("index.SearchSharded", opID, eng, start, end, true)
		t.rec.add("index.fanout", opID, idx, start, start.Add(fan), false)
		t.rec.add("index.merge", opID, idx, start.Add(fan), start.Add(fan+merge), false)
		t.expectSame("replayed top-links "+o.mode, res, ans.Results)
	case opTopAttrs:
		t.span("engine.TopAttrs", opID, serve, true, func() { _, _ = f.eng.TopAttrs(o.node, topK, "", 0) })
	case opLinkScore:
		t.span("core.LinkScore", opID, serve, true, func() {
			m := f.eng.Model()
			_ = m.Scorer.Directed(o.node, o.dst)
			_ = m.Scorer.Undirected(o.node, o.dst)
		})
	case opBatch:
		qs := o.batchQueries()
		t.span("engine.Execute", opID, serve, true, func() { f.eng.Execute(qs) })
	}
}

// sweepReads times, for every engine mode and index kind, the engine
// call, the two-shard search behind it, the unsharded search, the bare
// dot-product loop under that, and the brute-force scan the fallback
// path would pay — all on the same seeded query nodes.
func (t *tracer) sweepReads(li *layerIndexes) {
	f := t.f
	n, dim := li.z.Rows, li.z.Cols
	rng := streamRNG(f.seed, streamLayers)
	nodes := make([]int, f.spec.SweepQueries)
	for i := range nodes {
		nodes[i] = rng.Intn(n)
	}
	search := map[string][]float64{}
	for _, mode := range engineModes {
		var self []float64
		var fans, merges []float64
		for _, u := range nodes {
			q := li.model.Emb.Xf.Row(u)
			opt := index.Options{Skip: func(id int) bool { return id == u }}
			t0 := time.Now()
			ans, err := f.eng.TopLinks(u, topK, mode, 0)
			t1 := time.Now()
			res, fan, merge := index.SearchShardedTimed(li.sharded[mode], q, topK, opt)
			t2 := time.Now()
			one := li.flat[mode].Search(q, topK, opt)
			t3 := time.Now()
			if err != nil || ans.Backend != mode {
				t.checks++
				t.diffs++
				continue
			}
			t.expectSame("two-shard "+mode, res, ans.Results)
			if mode == engine.ModeExact || mode == engine.ModeSQ8 || mode == engine.ModeFP16 {
				// Flat kinds answer alike whatever the shard count.
				t.expectSame("unsharded "+mode, one, ans.Results)
			}
			self = append(self, ms(t1.Sub(t0)-t2.Sub(t1)))
			search[mode] = append(search[mode], ms(t3.Sub(t2)))
			fans, merges = append(fans, ms(fan)), append(merges, ms(merge))
		}
		t.out["engine.self_ms."+mode] = median(self)
		if mode == engine.ModeExact {
			t.out["index.fanout_ms"] = median(fans)
			t.out["index.merge_ms"] = median(merges)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for _, u := range nodes {
			_, _ = f.eng.TopLinks(u, topK, mode, 0)
		}
		runtime.ReadMemStats(&ms1)
		t.out["engine.allocs_per_query."+mode] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(nodes))
	}
	var dots, scans []float64
	var sink float64
	for _, u := range nodes {
		q := li.model.Emb.Xf.Row(u)
		opt := index.Options{Skip: func(id int) bool { return id == u }}
		t0 := time.Now()
		li.flat[index.KindIVF].Search(q, topK, opt)
		t1 := time.Now()
		for i := 0; i < n; i++ {
			sink += mat.Dot(q, li.z.Row(i))
		}
		t2 := time.Now()
		li.model.Scorer.TopKTargets(u, topK, nil)
		t3 := time.Now()
		search[index.KindIVF] = append(search[index.KindIVF], ms(t1.Sub(t0)))
		dots = append(dots, ms(t2.Sub(t1)))
		scans = append(scans, ms(t3.Sub(t2)))
	}
	if sink == 0 { // keeps the dot loop's result live
		t.rep.Notes = append(t.rep.Notes, "dot loop summed to zero")
	}
	for _, kind := range indexKinds {
		t.out["index.search_ms."+kind] = median(search[kind])
	}
	// Bytes are computed from the matrix shape, not measured: rows × dim
	// × code width, over the unsharded search time.
	gbps := func(width int, millis float64) float64 {
		return float64(n*dim*width) / (millis / 1e3) / 1e9
	}
	t.out["index.scan_gbps.exact"] = gbps(8, t.out["index.search_ms.exact"])
	t.out["index.scan_gbps.sq8"] = gbps(1, t.out["index.search_ms.sq8"])
	t.out["index.scan_gbps.fp16"] = gbps(2, t.out["index.search_ms.fp16"])
	t.out["mat.dot_scan_ms"] = median(dots)
	t.out["mat.dot_gbps"] = gbps(8, median(dots))
	t.out["core.topk_scan_ms"] = median(scans)
}

// sweepBatch times /batch at its three boundaries, 32 single queries as
// the baseline batching has to beat, and the one GEMM a batch could be.
func (t *tracer) sweepBatch(li *layerIndexes) {
	f := t.f
	gen := newOpGen(wlBatch, f.seed, streamLayers, f.g.N)
	var exec, speedup, serveSelf, gemm []float64
	for i := 0; i < f.spec.SweepBatches; i++ {
		o := gen.next()
		qs := o.batchQueries()
		// Execute and the handler around it, three times each and
		// interleaved, taking each one's fastest: their difference is a few
		// percent of either, and the noise on both is additive.
		var results []engine.Result
		execT, serveT := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			results, _ = f.eng.Execute(qs)
			t1 := time.Now()
			rr := serveRecorded(f, o)
			t2 := time.Now()
			execT = min(execT, t1.Sub(t0))
			serveT = min(serveT, t2.Sub(t1))
			t.checks++
			if rr.Code != http.StatusOK {
				t.diffs++
			}
		}
		t0 := time.Now()
		for j, u := range o.srcs {
			ans, err := f.eng.TopLinks(u, topK, engine.ModeExact, 0)
			if err != nil {
				t.checks++
				t.diffs++
				continue
			}
			t.expectSame("batch member", results[j].Top, ans.Results)
		}
		singles := time.Since(t0)
		queries := mat.New(len(o.srcs), li.z.Cols)
		for j, u := range o.srcs {
			copy(queries.Row(j), li.model.Emb.Xf.Row(u))
		}
		scores := mat.New(len(o.srcs), li.z.Rows)
		t1 := time.Now()
		mat.MulBTInto(scores, queries, li.z)
		gemm = append(gemm, ms(time.Since(t1)))
		exec = append(exec, ms(execT))
		speedup = append(speedup, float64(singles)/float64(execT))
		serveSelf = append(serveSelf, ms(serveT-execT))
	}
	t.out["engine.batch_exec_ms"] = median(exec)
	t.out["engine.batch_speedup"] = median(speedup)
	t.out["server.batch_self_ms"] = median(serveSelf)
	t.out["mat.batch_gemm_ms"] = median(gemm)
}

// bundleAndBootstrap times the bundle round trip on a buffer, then gives
// the leader its WAL and follower. The follower tails on its own only for
// mixed_rw's window; the write section drives it by hand.
func (t *tracer) bundleAndBootstrap(tail bool) error {
	f := t.f
	var buf bytes.Buffer
	t0 := time.Now()
	if err := store.WriteBundle(&buf, f.eng.CurrentBundle()); err != nil {
		return fmt.Errorf("bundle write: %w", err)
	}
	t1 := time.Now()
	t.out["store.bundle_mb"] = float64(buf.Len()) / (1 << 20)
	if _, err := store.ReadBundle(&buf); err != nil {
		return fmt.Errorf("bundle read: %w", err)
	}
	t2 := time.Now()
	if err := f.attachReplica(tail); err != nil {
		return err
	}
	t.out["store.bundle_write_s"] = t1.Sub(t0).Seconds()
	t.out["store.bundle_read_s"] = t2.Sub(t1).Seconds()
	t.out["replica.bootstrap_s"] = time.Since(t2).Seconds()
	return nil
}

// sweepWrites applies the write stream's first updates one at a time,
// alternately over HTTP (ack latency, with spans) and straight into the
// engine (so ApplyEdges itself can be timed), and after each times the
// index refresh, the same record into twin logs, the log read a follower
// would make, and the follower's replay of exactly that record.
func (t *tracer) sweepWrites() error {
	f := t.f
	if err := catchUp(f); err != nil {
		return fmt.Errorf("follower catch-up: %w", err)
	}
	f.eng.WaitForIndex()
	f.rep.Engine().WaitForIndex()
	fetches0 := f.rep.Status().BundleFetches

	twins := [2]*wal.Log{}
	for i, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncNone} {
		dir, err := os.MkdirTemp(f.workDir, "twin-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if twins[i], err = wal.Open(dir, wal.Options{Sync: policy}); err != nil {
			return fmt.Errorf("twin wal: %w", err)
		}
		defer twins[i].Close()
	}

	gen := newOpGen(wlMixedRW, f.seed, streamWrites, f.g.N)
	cn := dial(f.leader.url)
	defer cn.close()
	ctx := context.Background()
	seen := len(f.applied.snapshot())
	var acks, applySelf, refresh, graphMS, appendSync, appendNoSync, readFrom, syncOnce []float64
	var affMS, ccdMS []float64
	var frameBytes, incremental int
	for i := 0; i < f.spec.SweepWrites; i++ {
		o := gen.next()
		opID := 100000 + i

		t0 := time.Now()
		if _, err := f.eng.Model().Graph.WithUpdates(o.edges, nil); err != nil {
			return fmt.Errorf("graph.WithUpdates: %w", err)
		}
		withUpdates := time.Since(t0)
		graphMS = append(graphMS, ms(withUpdates))

		var applied time.Duration
		overHTTP := i%2 == 0
		if overHTTP {
			t.th.op.Store(int64(opID))
			var status int
			var err error
			rt, d := t.span("transport.roundtrip", opID, 0, false, func() { status, _, err = cn.do(o) })
			t.th.op.Store(0)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("write %d over HTTP: status %d, %v", i, status, err)
			}
			t.rec.reparent(int(t.th.last.Load()), rt)
			if i == 0 {
				// The first update after a start rebuilds the whole
				// affinity state; every later one patches it.
				t.out["write.first_ack_ms"] = ms(d)
			} else {
				acks = append(acks, ms(d))
			}
		} else {
			var err error
			_, applied = t.span("engine.ApplyEdges", opID, 0, false, func() { _, err = f.eng.ApplyEdges(o.edges) })
			if err != nil {
				return fmt.Errorf("write %d: %w", i, err)
			}
		}
		tr := time.Now()
		f.eng.WaitForIndex()
		refresh = append(refresh, ms(time.Since(tr)))

		stats := f.applied.snapshot()
		if len(stats) != seen+1 {
			return fmt.Errorf("write %d: %d updates observed, want %d", i, len(stats), seen+1)
		}
		seen++
		st := stats[len(stats)-1]
		if i > 0 {
			affMS = append(affMS, st.AffinitySeconds*1e3)
			ccdMS = append(ccdMS, st.CCDSeconds*1e3)
		}
		if st.AffinityIncremental {
			incremental++
		}

		rec := wal.Record{Version: uint64(i + 1), Edges: o.edges}
		t1 := time.Now()
		if err := twins[0].Append(rec); err != nil {
			return fmt.Errorf("twin append: %w", err)
		}
		t2 := time.Now()
		if err := twins[1].Append(rec); err != nil {
			return fmt.Errorf("twin append: %w", err)
		}
		t3 := time.Now()
		appendSync = append(appendSync, ms(t2.Sub(t1)))
		appendNoSync = append(appendNoSync, ms(t3.Sub(t2)))
		frame, err := wal.EncodeFrame(nil, rec)
		if err != nil {
			return err
		}
		frameBytes += len(frame)
		if !overHTTP && i > 1 {
			applySelf = append(applySelf, ms(applied-withUpdates-t2.Sub(t1))-st.AffinitySeconds*1e3-st.CCDSeconds*1e3)
		}

		t4 := time.Now()
		recs, err := f.wlog.ReadFrom(st.Version-1, 1)
		if err != nil || len(recs) != 1 {
			return fmt.Errorf("wal.ReadFrom(%d): %d records, %v", st.Version-1, len(recs), err)
		}
		readFrom = append(readFrom, ms(time.Since(t4)))

		t5 := time.Now()
		got, err := f.rep.SyncOnce(ctx)
		if err != nil || got != 1 {
			return fmt.Errorf("replica.SyncOnce applied %d records, %v", got, err)
		}
		syncOnce = append(syncOnce, ms(time.Since(t5)))
		f.rep.Engine().WaitForIndex()
	}
	t.out["write.ack_p50_ms"] = median(acks)
	t.out["engine.apply_self_ms"] = median(applySelf)
	t.out["engine.index_refresh_ms"] = median(refresh)
	t.out["core.update_affinity_ms"] = median(affMS)
	t.out["core.update_ccd_ms"] = median(ccdMS)
	t.out["core.affinity_incremental_share"] = float64(incremental) / float64(f.spec.SweepWrites)
	t.out["graph.with_updates_ms"] = median(graphMS)
	t.out["wal.append_ms"] = median(appendSync)
	t.out["wal.append_nosync_ms"] = median(appendNoSync)
	t.out["wal.bytes_per_record"] = float64(frameBytes) / float64(f.spec.SweepWrites)
	t.out["wal.read_from_ms"] = median(readFrom)
	t.out["replica.sync_once_ms"] = median(syncOnce)
	t.out["replica.bundle_fetches"] = float64(f.rep.Status().BundleFetches - fetches0)
	return nil
}

// catchUp drives the follower by hand until it has applied everything the
// leader has, for the traced run (whose follower does not tail).
func catchUp(f *fixture) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for f.rep.Engine().Version() < f.eng.Version() {
		if _, err := f.rep.SyncOnce(ctx); err != nil {
			return err
		}
	}
	return nil
}
