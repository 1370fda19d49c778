// Package server exposes a live PANE model engine as a small JSON-over-
// HTTP service — the deployment artifact a downstream user runs next to
// their application. Read endpoints:
//
//	GET /healthz                     liveness + model shape + version + index state
//	GET /metrics                     Prometheus text exposition (see internal/obs)
//	GET /attr-score?node=v&attr=r    Eq. 21 affinity score
//	GET /link-score?src=u&dst=v      Eq. 22 edge plausibility
//	GET /top-attrs?node=v&k=10       strongest attributes for a node
//	GET /top-links?src=u&k=10        most plausible out-neighbors
//
// The top-k routes additionally accept mode=exact|ivf|sq8|ivfsq|fp16|
// ivffp16 (backend choice; exact is the default, sq8/ivfsq are the
// int8-quantized scans with exact re-rank, fp16/ivffp16 the binary16
// scans served without re-rank) and nprobe=N (inverted-file probe count
// override), and every top-k response reports which backend actually
// answered ("exact", "ivf", "sq8", "ivfsq", "fp16", "ivffp16", or "scan"
// — the brute-force path used while a new index version is still
// building; a mode whose backend was not built degrades toward "exact"). k must be a positive integer; values above the
// candidate count are clamped. With a sharded serving index, top-k
// queries fan out across the shards in parallel and /healthz reports the
// shard count and the index version every shard's generation shares next
// to the model version; a batch's top-k queries are scanned together
// (one pass over each shard's rows for the whole batch), each answered
// exactly as if issued alone.
//
// /healthz additionally exposes the delta-update pipeline's state under
// "index": "incremental_refreshes" and "full_rebuilds" count shard build
// cycles by kind, "last_delta_rows" is the dirty-row count of the most
// recent update, and "refresh_threshold" the dirty fraction at or below
// which updates refresh incrementally instead of rebuilding. The
// model-side counterpart lives under "affinity": "affinity_incremental"
// and "affinity_full" count recurrence passes by kind,
// "affinity_frontier_rows" is the frontier size of the most recent
// incremental pass, and "gram_corrections" how many attribute
// deltas were absorbed by the low-rank link-space correction instead of
// a full shard rebuild. "kernels" reports the instruction set each
// compute kernel dispatches to on this build and host ("generic",
// "avx2", or "neon"), mirrored by the pane_kernel_dispatch info gauge on
// /metrics.
//
// Probe endpoints split liveness from readiness:
//
//	GET /livez    200 while the process serves HTTP — restart signal only
//	GET /readyz   200 when every registered readiness check passes, 503
//	              (naming the failing checks) otherwise — rotation signal
//
// Write and lifecycle endpoints:
//
//	POST /update/edges   {"edges":[{"src":0,"dst":4}, ...]}
//	POST /update/attrs   {"attrs":[{"node":0,"attr":2,"weight":1}, ...]}
//	POST /batch          {"queries":[{"op":"link-score","src":0,"dst":4}, ...]}
//	POST /snapshot       persist the current model to the configured path
//	POST /promote        follower-to-leader failover (see WithPromotion)
//
// Replication endpoints (see internal/replica for the follower side):
//
//	GET /replicate?from=V[&max=N]   stream WAL records with version > V
//	GET /bundle                     stream the current model as a bundle
//
// /replicate answers with the wal frame encoding (binary), an
// X-Pane-Version header carrying the leader's live model version, 410
// Gone when the requested records were compacted away (the follower
// must fetch /bundle instead), and 503 when the engine has no
// write-ahead log attached. /bundle streams the same byte-deterministic
// v4 format POST /snapshot writes. A follower built with WithReadOnly
// serves every read endpoint but answers 403 on the mutating ones —
// writes belong to the leader, and read-your-writes clients route by
// the model version every response already carries.
//
// Both replication endpoints speak fencing epochs (X-Pane-Epoch, see
// EpochHeader): responses state the serving engine's epoch, requests
// carry the follower's highest known one, and a leader asked from a
// newer epoch fences itself and answers 409 — a deposed leader never
// feeds its stale stream to followers. Direct writes on a deposed
// engine also answer 409. Reads keep serving throughout (degraded
// mode), with X-Pane-Staleness labeling follower freshness when the
// server has a staleness signal (WithStaleness).
//
// Each request resolves the engine's current model once, so every
// response is internally consistent even while updates land; reads never
// block on writes. Routes are method-scoped: the wrong verb on a known
// path gets 405 with an Allow header rather than a silently-served body.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pane/internal/engine"
	"pane/internal/graph"
	"pane/internal/obs"
	"pane/internal/store"
	"pane/internal/wal"
)

// VersionHeader carries the serving model version on replication
// responses; followers compute their record lag from it.
const VersionHeader = "X-Pane-Version"

// EpochHeader carries fencing epochs both ways across the replication
// endpoints. Responses always state the serving engine's epoch, so a
// follower can reject a stream from a lineage older than one it has
// already seen. Requests carry the follower's highest known epoch: a
// leader receiving an epoch above its own has been deposed by a
// failover it did not witness — it fences itself and answers 409.
const EpochHeader = "X-Pane-Epoch"

// StalenessHeader advertises a follower's replication freshness
// ("fresh" or "stale") on every response when the server was built
// WithStaleness. A stale follower keeps serving reads — degraded and
// labeled beats down — and clients that cannot tolerate lag route on
// this header.
const StalenessHeader = "X-Pane-Staleness"

// Server wraps an engine with HTTP handlers.
type Server struct {
	eng          *engine.Engine
	snapshotPath string
	mux          *http.ServeMux

	// readOnly is dynamic: a follower starts true and flips false when
	// POST /promote succeeds, with no listener restart.
	readOnly atomic.Bool

	// promote is the follower-to-leader transition POST /promote runs
	// (nil: this server cannot be promoted and the route answers 503).
	// It returns the new fencing epoch.
	promote func() (uint32, error)

	// stale reports replication staleness for StalenessHeader (nil: no
	// header; leaders have no replication lag to advertise).
	stale func() bool

	// ready holds the readiness checks behind GET /readyz; /livez never
	// consults them — a live-but-unready process must not be restarted,
	// just taken out of rotation.
	ready []readinessCheck

	// health holds extra named sections merged into /healthz (e.g. a
	// follower's replication status).
	health []healthSection

	// met instruments every route (see metrics.go); it records into the
	// engine's registry so /metrics serves both layers' series.
	met           *serverMetrics
	slowThreshold time.Duration
	slowLog       *log.Logger
}

type healthSection struct {
	name string
	fn   func() interface{}
}

type readinessCheck struct {
	name string
	fn   func() error
}

// Option configures a Server.
type Option func(*Server)

// WithSnapshotPath sets the bundle file POST /snapshot writes. The path
// is fixed at construction — clients trigger snapshots but never choose
// where on the host they land. Without it, POST /snapshot returns 503.
func WithSnapshotPath(path string) Option {
	return func(s *Server) { s.snapshotPath = path }
}

// WithReadOnly makes the server a replica surface: the mutating routes
// (updates, snapshot) answer 403 instead of touching the engine. Reads,
// metrics, and the replication endpoints stay live. The mode is dynamic
// — a successful POST /promote (see WithPromotion) lifts it.
func WithReadOnly() Option {
	return func(s *Server) { s.readOnly.Store(true) }
}

// WithPromotion arms POST /promote with the follower-to-leader
// transition: fn must stop tailing the old leader, attach a write-ahead
// log, and raise the engine's fencing epoch, returning the epoch it
// promoted to. On success the server drops read-only mode and serves
// writes. Without this option the route answers 503.
func WithPromotion(fn func() (uint32, error)) Option {
	return func(s *Server) { s.promote = fn }
}

// WithStaleness stamps StalenessHeader on every response from fn's
// verdict. Follower deployments wire it to the replica's staleness
// signal (consecutive failed sync rounds against the leader).
func WithStaleness(fn func() bool) Option {
	return func(s *Server) { s.stale = fn }
}

// WithReadiness adds a named check to GET /readyz. Any check returning
// an error makes the server not-ready (503, with the failing checks
// named); /livez is unaffected.
func WithReadiness(name string, fn func() error) Option {
	return func(s *Server) { s.ready = append(s.ready, readinessCheck{name, fn}) }
}

// WithHealthSection merges fn's value under the given key into every
// /healthz response. fn runs per request; keep it cheap.
func WithHealthSection(name string, fn func() interface{}) Option {
	return func(s *Server) { s.health = append(s.health, healthSection{name, fn}) }
}

// New builds a Server around eng.
func New(eng *engine.Engine, opts ...Option) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux(), slowLog: log.Default()}
	s.met = newServerMetrics(eng.Metrics())
	for _, opt := range opts {
		opt(s)
	}
	routes := []struct {
		method, path string
		h            http.HandlerFunc
		write        bool
	}{
		{"GET", "/healthz", s.handleHealth, false},
		{"GET", "/livez", s.handleLivez, false},
		{"GET", "/readyz", s.handleReadyz, false},
		{"GET", "/metrics", eng.Metrics().Handler().ServeHTTP, false},
		{"GET", "/attr-score", s.handleAttrScore, false},
		{"GET", "/link-score", s.handleLinkScore, false},
		{"GET", "/top-attrs", s.handleTopAttrs, false},
		{"GET", "/top-links", s.handleTopLinks, false},
		{"GET", "/replicate", s.handleReplicate, false},
		{"GET", "/bundle", s.handleBundle, false},
		{"POST", "/update/edges", s.handleUpdateEdges, true},
		{"POST", "/update/attrs", s.handleUpdateAttrs, true},
		{"POST", "/batch", s.handleBatch, false},
		{"POST", "/snapshot", s.handleSnapshot, true},
		// /promote is deliberately NOT a write route: promotion happens
		// exactly on a read-only follower.
		{"POST", "/promote", s.handlePromote, false},
	}
	for _, rt := range routes {
		h := rt.h
		if rt.write {
			h = s.guardWrite(h)
		}
		s.mux.Handle(rt.method+" "+rt.path, s.instrument(rt.path, s.withStaleness(h)))
	}
	return s
}

// guardWrite rejects mutating requests while the server is read-only.
// The check runs per request (not at route construction) so promotion
// can lift read-only mode on a live listener.
func (s *Server) guardWrite(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.readOnly.Load() {
			writeError(w, http.StatusForbidden, "read-only replica: writes go to the leader")
			return
		}
		h(w, r)
	}
}

// withStaleness stamps StalenessHeader when the server has a staleness
// signal; a no-op wrapper otherwise.
func (s *Server) withStaleness(h http.HandlerFunc) http.HandlerFunc {
	if s.stale == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		v := "fresh"
		if s.stale() {
			v = "stale"
		}
		w.Header().Set(StalenessHeader, v)
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Resolve the index status BEFORE the model: the two reads are not
	// atomic together, and in this order any skew shows the index at or
	// behind the model — the legitimate "rebuild pending" state — rather
	// than impossibly ahead of it.
	idx := s.eng.IndexStatus()
	aff := s.eng.AffinityStatus()
	m := s.eng.Model()
	body := map[string]interface{}{
		"status":       "ok",
		"version":      m.Version,
		"nodes":        m.Nodes(),
		"attrs":        m.Attrs(),
		"k":            m.Emb.K(),
		"edges":        m.Graph.M(),
		"attr_entries": m.Graph.NNZAttr(),
		"index":        idx,
		"affinity":     aff,
		"read_only":    s.readOnly.Load(),
		"epoch":        s.eng.Epoch(),
		"deposed":      s.eng.Deposed(),
		"kernels":      engine.KernelDispatch(),
	}
	for _, sec := range s.health {
		body[sec.name] = sec.fn()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleLivez is pure liveness: the process is up and serving HTTP.
// Nothing about model freshness or replication belongs here — a stale
// follower restarted by an over-eager liveness probe loses its warm
// model for no gain.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz runs the registered readiness checks; any failure means
// "take me out of rotation" (503), never "restart me".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	failed := map[string]string{}
	for _, c := range s.ready {
		if err := c.fn(); err != nil {
			failed[c.name] = err.Error()
		}
	}
	if len(failed) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"status": "not ready", "failed": failed,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handlePromote runs the follower-to-leader transition. On success the
// server leaves read-only mode atomically with the response — the next
// write request on this listener lands on the promoted engine.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.promote == nil {
		writeError(w, http.StatusServiceUnavailable, "this server cannot be promoted (no promotion configured)")
		return
	}
	epoch, err := s.promote()
	if err != nil {
		writeError(w, http.StatusConflict, fmt.Sprintf("promotion failed: %v", err))
		return
	}
	s.readOnly.Store(false)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "promoted", "epoch": epoch, "version": s.eng.Version(),
	})
}

func (s *Server) handleAttrScore(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Model()
	v, ok := intParam(w, r, "node", m.Nodes())
	if !ok {
		return
	}
	a, ok := intParam(w, r, "attr", m.Attrs())
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"node": v, "attr": a, "score": m.Emb.AttrScore(v, a), "version": m.Version,
	})
}

func (s *Server) handleLinkScore(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Model()
	u, ok := intParam(w, r, "src", m.Nodes())
	if !ok {
		return
	}
	v, ok := intParam(w, r, "dst", m.Nodes())
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"src": u, "dst": v,
		"score":      m.Scorer.Directed(u, v),
		"undirected": m.Scorer.Undirected(u, v),
		"version":    m.Version,
	})
}

func (s *Server) handleTopAttrs(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Model()
	v, ok := intParam(w, r, "node", m.Nodes())
	if !ok {
		return
	}
	k, mode, nprobe, ok := topkParams(w, r)
	if !ok {
		return
	}
	t0 := time.Now()
	ans, err := s.eng.TopAttrs(v, k, mode, nprobe)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.recordTopK("/top-attrs", ans.Backend, time.Since(t0))
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"node": v, "results": ans.Results, "version": ans.Version, "backend": ans.Backend,
	})
}

func (s *Server) handleTopLinks(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Model()
	u, ok := intParam(w, r, "src", m.Nodes())
	if !ok {
		return
	}
	k, mode, nprobe, ok := topkParams(w, r)
	if !ok {
		return
	}
	t0 := time.Now()
	ans, err := s.eng.TopLinks(u, k, mode, nprobe)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.recordTopK("/top-links", ans.Backend, time.Since(t0))
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"src": u, "results": ans.Results, "version": ans.Version, "backend": ans.Backend,
	})
}

type edgeUpdate struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

func (s *Server) handleUpdateEdges(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Edges []edgeUpdate `json:"edges"`
	}
	if !decodeJSON(w, r, &body) {
		return
	}
	if len(body.Edges) == 0 {
		writeError(w, http.StatusBadRequest, "no edges in update")
		return
	}
	edges := make([]graph.Edge, len(body.Edges))
	for i, e := range body.Edges {
		edges[i] = graph.Edge{Src: e.Src, Dst: e.Dst}
	}
	m, err := s.eng.ApplyEdges(edges)
	if err != nil {
		writeApplyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"version": m.Version, "edges": m.Graph.M(), "applied": len(edges),
	})
}

type attrUpdate struct {
	Node   int     `json:"node"`
	Attr   int     `json:"attr"`
	Weight float64 `json:"weight"`
}

func (s *Server) handleUpdateAttrs(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Attrs []attrUpdate `json:"attrs"`
	}
	if !decodeJSON(w, r, &body) {
		return
	}
	if len(body.Attrs) == 0 {
		writeError(w, http.StatusBadRequest, "no attrs in update")
		return
	}
	attrs := make([]graph.AttrEntry, len(body.Attrs))
	for i, a := range body.Attrs {
		attrs[i] = graph.AttrEntry{Node: a.Node, Attr: a.Attr, Weight: a.Weight}
	}
	m, err := s.eng.ApplyAttrs(attrs)
	if err != nil {
		writeApplyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"version": m.Version, "attr_entries": m.Graph.NNZAttr(), "applied": len(attrs),
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Queries []engine.Query `json:"queries"`
	}
	if !decodeJSON(w, r, &body) {
		return
	}
	if len(body.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "no queries in batch")
		return
	}
	t0 := time.Now()
	results, version := s.eng.Execute(body.Queries)
	d := time.Since(t0)
	// Per-backend accounting for the batch's top-k members: the whole
	// batch shares one wall time, so each backend's histogram gets the
	// batch duration once (counts stay per-query via the counter).
	seen := map[string]int{}
	for _, res := range results {
		if res.Backend != "" && res.Err == "" {
			seen[res.Backend]++
		}
	}
	for backend, n := range seen {
		s.met.reg.Counter("pane_topk_requests_total", topkHelp,
			obs.L("route", "/batch"), obs.L("backend", backend)).Add(uint64(n))
		s.met.reg.Histogram("pane_topk_duration_seconds", topkDurHelp,
			obs.L("route", "/batch"), obs.L("backend", backend)).Observe(d)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"version": version, "results": results,
	})
}

// defaultReplicateMax bounds one /replicate response; followers page
// through larger backlogs with repeated requests.
const defaultReplicateMax = 4096

// fenceFromRequest applies the caller's EpochHeader (its highest known
// fencing epoch) to the engine, then refuses to serve replication from
// a deposed lineage: a leader that lost a failover must not keep
// feeding its stale stream to followers — that is exactly the
// split-brain propagation fencing exists to stop. Returns false after
// writing the 409 (or 400 on a malformed header).
func (s *Server) fenceFromRequest(w http.ResponseWriter, r *http.Request) bool {
	if raw := r.Header.Get(EpochHeader); raw != "" {
		ep, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("header %s: %v", EpochHeader, err))
			return false
		}
		s.eng.Fence(uint32(ep))
	}
	if s.eng.Deposed() {
		// Advertise the superseding epoch, not our own stale one, so the
		// caller learns which lineage won.
		w.Header().Set(EpochHeader, strconv.FormatUint(uint64(s.eng.ObservedEpoch()), 10))
		writeError(w, http.StatusConflict,
			"deposed: a newer fencing epoch exists; re-point to the promoted leader")
		return false
	}
	return true
}

func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if !s.fenceFromRequest(w, r) {
		return
	}
	l := s.eng.WAL()
	if l == nil {
		writeError(w, http.StatusServiceUnavailable, "no write-ahead log attached")
		return
	}
	q := r.URL.Query()
	raw := q.Get("from")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing parameter \"from\"")
		return
	}
	from, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parameter \"from\": %v", err))
		return
	}
	max := defaultReplicateMax
	if raw := q.Get("max"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("parameter \"max\" must be a positive integer, got %q", raw))
			return
		}
		if v < max {
			max = v
		}
	}
	recs, err := l.ReadFrom(from, max)
	// The version header is resolved after the read so a follower's lag
	// estimate never counts records it was just handed.
	w.Header().Set(VersionHeader, strconv.FormatUint(s.eng.Version(), 10))
	w.Header().Set(EpochHeader, strconv.FormatUint(uint64(s.eng.Epoch()), 10))
	if err != nil {
		if errors.Is(err, wal.ErrCompacted) {
			writeError(w, http.StatusGone, "records compacted away; fetch /bundle")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	var frame []byte
	for _, rec := range recs {
		frame, err = wal.EncodeFrame(frame[:0], rec)
		if err != nil {
			return // mid-stream: the torn tail tells the follower to retry
		}
		if _, err := w.Write(frame); err != nil {
			return
		}
	}
}

func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	if !s.fenceFromRequest(w, r) {
		return
	}
	b := s.eng.CurrentBundle()
	w.Header().Set(VersionHeader, strconv.FormatUint(b.ModelVersion, 10))
	w.Header().Set(EpochHeader, strconv.FormatUint(uint64(s.eng.Epoch()), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_ = store.WriteBundle(w, b) // mid-stream failure surfaces as a follower decode error
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.snapshotPath == "" {
		writeError(w, http.StatusServiceUnavailable, "no snapshot path configured")
		return
	}
	m, err := s.eng.Snapshot(s.snapshotPath)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"version": m.Version, "path": s.snapshotPath,
	})
}

// decodeJSON parses the request body into dst, rejecting oversized bodies
// and trailing garbage. Returns false after writing the error response.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid JSON body: %v", err))
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// intParam parses a required integer query parameter in [0, limit).
func intParam(w http.ResponseWriter, r *http.Request, name string, limit int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("missing parameter %q", name))
		return 0, false
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parameter %q: %v", name, err))
		return 0, false
	}
	if v < 0 || v >= limit {
		writeError(w, http.StatusNotFound, fmt.Sprintf("parameter %q = %d out of range [0,%d)", name, v, limit))
		return 0, false
	}
	return v, true
}

// topkParams parses the shared top-k query parameters. k defaults to 10
// when absent but an explicit k < 1 (or non-integer) is a 400 — never a
// silent rewrite; values above the candidate count are clamped downstream.
// mode must be "exact", "ivf", "sq8", "ivfsq", "fp16", or "ivffp16" when
// present; nprobe must be a positive integer when present (it is only
// consulted on inverted-file searches). Returns ok=false after writing
// the error response.
func topkParams(w http.ResponseWriter, r *http.Request) (k int, mode string, nprobe int, ok bool) {
	q := r.URL.Query()
	k = engine.DefaultK
	if raw := q.Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("parameter \"k\" must be a positive integer, got %q", raw))
			return 0, "", 0, false
		}
		k = v
	}
	mode = q.Get("mode")
	switch mode {
	case "", engine.ModeExact, engine.ModeIVF, engine.ModeSQ8, engine.ModeIVFSQ,
		engine.ModeFP16, engine.ModeIVFFP16:
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("parameter \"mode\" must be %q, %q, %q, %q, %q, or %q, got %q",
				engine.ModeExact, engine.ModeIVF, engine.ModeSQ8, engine.ModeIVFSQ,
				engine.ModeFP16, engine.ModeIVFFP16, mode))
		return 0, "", 0, false
	}
	if raw := q.Get("nprobe"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("parameter \"nprobe\" must be a positive integer, got %q", raw))
			return 0, "", 0, false
		}
		nprobe = v
	}
	return k, mode, nprobe, true
}

func writeJSON(w http.ResponseWriter, status int, payload interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(payload)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// writeApplyError maps an engine write failure to a status: a fenced
// write is 409 (this replica was deposed; the client must re-resolve
// the leader), anything else is the caller's fault (400).
func writeApplyError(w http.ResponseWriter, err error) {
	if errors.Is(err, engine.ErrFenced) {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}
