package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pane/internal/core"
	"pane/internal/engine"
	"pane/internal/graph"
)

func testEngine(t *testing.T, opts ...engine.Option) *engine.Engine {
	t.Helper()
	g := graph.RunningExample()
	eng, err := engine.Train(g, core.Config{K: 4, Alpha: 0.15, Eps: 0.05, Seed: 1}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testServer(t *testing.T) (*Server, *core.Embedding) {
	t.Helper()
	eng := testEngine(t)
	return New(eng), eng.Model().Emb
}

func get(t *testing.T, s *Server, path string) (int, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON from %s: %v (%q)", path, err, rec.Body.String())
	}
	return rec.Code, body
}

func post(t *testing.T, s *Server, path, payload string) (int, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(payload))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON from %s: %v (%q)", path, err, rec.Body.String())
	}
	return rec.Code, body
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["nodes"].(float64) != 6 || body["attrs"].(float64) != 3 || body["k"].(float64) != 4 {
		t.Fatalf("health payload: %v", body)
	}
	if body["version"].(float64) != 1 {
		t.Fatalf("fresh model version = %v, want 1", body["version"])
	}
	aff, ok := body["affinity"].(map[string]interface{})
	if !ok {
		t.Fatalf("healthz missing affinity section: %v", body)
	}
	if aff["threshold"].(float64) != engine.DefaultAffinityThreshold || aff["affinity_incremental"].(float64) != 0 ||
		aff["affinity_full"].(float64) != 0 || aff["affinity_frontier_rows"].(float64) != 0 {
		t.Fatalf("fresh affinity status: %v", aff)
	}
}

func TestAttrScoreMatchesEmbedding(t *testing.T) {
	s, emb := testServer(t)
	code, body := get(t, s, "/attr-score?node=2&attr=1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	want := emb.AttrScore(2, 1)
	if got := body["score"].(float64); got != want {
		t.Fatalf("score %v, want %v", got, want)
	}
}

func TestLinkScoreMatchesScorer(t *testing.T) {
	s, emb := testServer(t)
	code, body := get(t, s, "/link-score?src=0&dst=4")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	sc := core.NewLinkScorer(emb)
	if got := body["score"].(float64); got != sc.Directed(0, 4) {
		t.Fatalf("directed %v, want %v", got, sc.Directed(0, 4))
	}
	if got := body["undirected"].(float64); got != sc.Undirected(0, 4) {
		t.Fatalf("undirected %v", got)
	}
}

func TestTopAttrs(t *testing.T) {
	s, emb := testServer(t)
	code, body := get(t, s, "/top-attrs?node=5&k=2")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	results := body["results"].([]interface{})
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	first := results[0].(map[string]interface{})
	want := emb.TopKAttrs(5, 2, nil)
	if int(first["ID"].(float64)) != want[0].ID {
		t.Fatalf("top attr %v, want %v", first, want[0])
	}
}

func TestTopLinks(t *testing.T) {
	s, _ := testServer(t)
	code, body := get(t, s, "/top-links?src=0&k=3")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(body["results"].([]interface{})) != 3 {
		t.Fatal("want 3 results")
	}
}

func TestParameterValidation(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		path string
		code int
	}{
		{"/attr-score", http.StatusBadRequest},        // missing both
		{"/attr-score?node=0", http.StatusBadRequest}, // missing attr
		{"/attr-score?node=abc&attr=0", http.StatusBadRequest},
		{"/attr-score?node=99&attr=0", http.StatusNotFound}, // out of range
		{"/attr-score?node=0&attr=-1", http.StatusNotFound},
		{"/link-score?src=0&dst=100", http.StatusNotFound},
		{"/top-attrs?node=77", http.StatusNotFound},
	}
	for _, c := range cases {
		code, body := get(t, s, c.path)
		if code != c.code {
			t.Fatalf("%s: status %d want %d (%v)", c.path, code, c.code, body)
		}
		if _, hasErr := body["error"]; !hasErr {
			t.Fatalf("%s: error payload missing", c.path)
		}
	}
}

func TestKDefaultsAndClamping(t *testing.T) {
	s, _ := testServer(t)
	_, body := get(t, s, "/top-attrs?node=0") // default k=10 > d=3 → clamp to 3
	if got := len(body["results"].([]interface{})); got != 3 {
		t.Fatalf("default k results = %d, want 3 (clamped)", got)
	}
	_, body = get(t, s, "/top-attrs?node=0&k=99") // above candidate count → clamp
	if got := len(body["results"].([]interface{})); got != 3 {
		t.Fatalf("k=99 results = %d, want 3 (clamped)", got)
	}
}

func TestInvalidTopKParamsRejected(t *testing.T) {
	s, _ := testServer(t)
	// An explicit k < 1 (or junk) is a 400, never silently rewritten to
	// the default; same for malformed mode/nprobe.
	for _, path := range []string{
		"/top-attrs?node=0&k=0",
		"/top-attrs?node=0&k=-3",
		"/top-attrs?node=0&k=abc",
		"/top-links?src=0&k=0",
		"/top-links?src=0&mode=bogus",
		"/top-links?src=0&nprobe=0",
		"/top-links?src=0&nprobe=-1",
		"/top-links?src=0&nprobe=x",
		"/top-attrs?node=0&mode=IVF", // case-sensitive
	} {
		code, body := get(t, s, path)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d want 400 (%v)", path, code, body)
		}
		if _, hasErr := body["error"]; !hasErr {
			t.Fatalf("%s: error payload missing", path)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		method, path string
	}{
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/link-score?src=0&dst=1"},
		{http.MethodDelete, "/top-attrs?node=0"},
		{http.MethodGet, "/update/edges"},
		{http.MethodGet, "/update/attrs"},
		{http.MethodGet, "/batch"},
		{http.MethodPut, "/snapshot"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, rec.Code)
		}
	}
}

func TestUpdateEdgesReflectsInScores(t *testing.T) {
	s, _ := testServer(t)
	_, before := get(t, s, "/link-score?src=0&dst=5")
	code, body := post(t, s, "/update/edges", `{"edges":[{"src":0,"dst":5},{"src":5,"dst":0}]}`)
	if code != http.StatusOK {
		t.Fatalf("update status %d: %v", code, body)
	}
	if body["version"].(float64) != 2 {
		t.Fatalf("post-update version = %v, want 2", body["version"])
	}
	_, health := get(t, s, "/healthz")
	if health["version"].(float64) != 2 {
		t.Fatalf("healthz version = %v, want 2", health["version"])
	}
	_, after := get(t, s, "/link-score?src=0&dst=5")
	if before["score"].(float64) == after["score"].(float64) {
		t.Fatal("link score unchanged after edge update")
	}
	if after["version"].(float64) != 2 {
		t.Fatalf("score version = %v, want 2", after["version"])
	}
}

func TestUpdateAttrsBumpsVersion(t *testing.T) {
	s, _ := testServer(t)
	code, body := post(t, s, "/update/attrs", `{"attrs":[{"node":0,"attr":2,"weight":1.5}]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["version"].(float64) != 2 {
		t.Fatalf("version = %v, want 2", body["version"])
	}
}

func TestUpdateErrorPaths(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		path, payload string
	}{
		{"/update/edges", `not json`},
		{"/update/edges", `{"edges":[]}`},
		{"/update/edges", `{}`},
		{"/update/edges", `{"edges":[{"src":0,"dst":99}]}`}, // out of range
		{"/update/edges", `{"edges":[{"src":-1,"dst":0}]}`},
		{"/update/edges", `{"edges":[{"src":0,"dst":1}]} trailing`},
		{"/update/attrs", `{"attrs":[]}`},
		{"/update/attrs", `{"attrs":[{"node":0,"attr":99,"weight":1}]}`},
		{"/update/attrs", `{"attrs":[{"node":0,"attr":0,"weight":-2}]}`}, // negative weight
		{"/batch", `{"queries":[]}`},
		{"/batch", `broken`},
	}
	for _, c := range cases {
		code, body := post(t, s, c.path, c.payload)
		if code != http.StatusBadRequest {
			t.Fatalf("POST %s %q: status %d want 400 (%v)", c.path, c.payload, code, body)
		}
		if _, hasErr := body["error"]; !hasErr {
			t.Fatalf("POST %s %q: error payload missing", c.path, c.payload)
		}
	}
	// Failed updates must not bump the version.
	_, health := get(t, s, "/healthz")
	if health["version"].(float64) != 1 {
		t.Fatalf("version moved to %v after failed updates", health["version"])
	}
}

func TestOversizedBodyGets413(t *testing.T) {
	s, _ := testServer(t)
	// Valid JSON whose whitespace padding pushes the body past the 64 MB
	// limit: the decoder reads through it and must surface 413, not 400.
	payload := `{"edges":[` + strings.Repeat(" ", 64<<20) + `{"src":0,"dst":5}]}`
	code, body := post(t, s, "/update/edges", payload)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d want 413 (%v)", code, body)
	}
	if _, hasErr := body["error"]; !hasErr {
		t.Fatal("error payload missing")
	}
}

func TestBatchHeterogeneous(t *testing.T) {
	s, emb := testServer(t)
	code, body := post(t, s, "/batch", `{"queries":[
		{"op":"link-score","src":0,"dst":4},
		{"op":"attr-score","node":2,"attr":1},
		{"op":"top-attrs","node":5,"k":2},
		{"op":"nonsense"},
		{"op":"top-links","src":99}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]interface{})
	if len(results) != 5 {
		t.Fatalf("%d results, want 5", len(results))
	}
	link := results[0].(map[string]interface{})
	sc := core.NewLinkScorer(emb)
	if link["score"].(float64) != sc.Directed(0, 4) {
		t.Fatalf("batch link score %v, want %v", link["score"], sc.Directed(0, 4))
	}
	attr := results[1].(map[string]interface{})
	if attr["score"].(float64) != emb.AttrScore(2, 1) {
		t.Fatalf("batch attr score %v", attr["score"])
	}
	top := results[2].(map[string]interface{})
	if len(top["top"].([]interface{})) != 2 {
		t.Fatalf("batch top-attrs %v", top["top"])
	}
	for _, i := range []int{3, 4} {
		r := results[i].(map[string]interface{})
		if _, hasErr := r["error"]; !hasErr {
			t.Fatalf("result %d should carry an error: %v", i, r)
		}
	}
	if body["version"].(float64) != 1 {
		t.Fatalf("batch version %v", body["version"])
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	eng := testEngine(t)
	// Unconfigured: 503.
	s := New(eng)
	code, body := post(t, s, "/snapshot", "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unconfigured snapshot: status %d (%v)", code, body)
	}
	// Configured: writes a loadable bundle.
	path := filepath.Join(t.TempDir(), "model.pane")
	s = New(eng, WithSnapshotPath(path))
	code, body = post(t, s, "/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d (%v)", code, body)
	}
	if body["path"].(string) != path {
		t.Fatalf("snapshot path %v", body["path"])
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	restored, err := engine.Open(path)
	if err != nil {
		t.Fatalf("reopening snapshot: %v", err)
	}
	if restored.Version() != eng.Version() {
		t.Fatalf("restored version %d != live %d", restored.Version(), eng.Version())
	}
}

// indexedServer builds a server over an engine with full indexing and
// manual rebuilds, so tests can pin the mid-rebuild state.
func indexedServer(t *testing.T) (*Server, *engine.Engine) {
	t.Helper()
	eng := testEngine(t,
		engine.WithIndex(engine.IndexConfig{IVF: true, NList: 2, NProbe: 2}),
		engine.WithManualIndexRebuild())
	return New(eng), eng
}

func TestTopKBackendReporting(t *testing.T) {
	s, _ := indexedServer(t)
	cases := []struct {
		path, backend string
	}{
		{"/top-links?src=0&k=3", "exact"}, // default mode
		{"/top-links?src=0&k=3&mode=exact", "exact"},
		{"/top-links?src=0&k=3&mode=ivf", "ivf"},
		{"/top-links?src=0&k=3&mode=ivf&nprobe=1", "ivf"},
		{"/top-attrs?node=0&k=2&mode=ivf", "ivf"},
		{"/top-attrs?node=0&k=2", "exact"},
	}
	for _, c := range cases {
		code, body := get(t, s, c.path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", c.path, code, body)
		}
		if got := body["backend"]; got != c.backend {
			t.Fatalf("%s: backend %v, want %q", c.path, got, c.backend)
		}
		if body["version"].(float64) != 1 {
			t.Fatalf("%s: version %v", c.path, body["version"])
		}
	}
	// An unindexed engine answers the same queries from the scan path.
	plain, _ := testServer(t)
	_, body := get(t, plain, "/top-links?src=0&k=3&mode=ivf")
	if got := body["backend"]; got != "scan" {
		t.Fatalf("unindexed backend %v, want scan", got)
	}
}

// TestQuantizedModesOverHTTP: the sq8/ivfsq modes are accepted on both
// top-k routes, answer from their backends, degrade to exact on an
// unquantized index, and healthz reports the quantized configuration.
func TestQuantizedModesOverHTTP(t *testing.T) {
	eng := testEngine(t, engine.WithIndex(engine.IndexConfig{
		IVF: true, NList: 2, NProbe: 2, Quantize: true, Rerank: 3,
	}))
	s := New(eng)
	cases := []struct {
		path, backend string
	}{
		{"/top-links?src=0&k=3&mode=sq8", "sq8"},
		{"/top-links?src=0&k=3&mode=ivfsq", "ivfsq"},
		{"/top-links?src=0&k=3&mode=ivfsq&nprobe=1", "ivfsq"},
		{"/top-attrs?node=0&k=2&mode=sq8", "sq8"},
		{"/top-attrs?node=0&k=2&mode=ivfsq", "ivfsq"},
	}
	for _, c := range cases {
		code, body := get(t, s, c.path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", c.path, code, body)
		}
		if got := body["backend"]; got != c.backend {
			t.Fatalf("%s: backend %v, want %q", c.path, got, c.backend)
		}
	}
	// With a full re-rank window the quantized answer must equal exact.
	_, exact := get(t, s, "/top-links?src=0&k=3&mode=exact")
	_, sq8 := get(t, s, "/top-links?src=0&k=3&mode=sq8")
	if exactJSON, sq8JSON := jsonString(t, exact["results"]), jsonString(t, sq8["results"]); exactJSON != sq8JSON {
		t.Fatalf("sq8 results %s differ from exact %s", sq8JSON, exactJSON)
	}
	// healthz carries the quantized index state.
	_, health := get(t, s, "/healthz")
	idx := health["index"].(map[string]interface{})
	if idx["quantize"] != true || idx["rerank"].(float64) != 3 {
		t.Fatalf("healthz index %v", idx)
	}
	// On an unquantized index the modes degrade with honest labels.
	plainIdx, _ := indexedServer(t)
	_, body := get(t, plainIdx, "/top-links?src=0&k=3&mode=sq8")
	if got := body["backend"]; got != "exact" {
		t.Fatalf("unquantized sq8 backend %v, want exact", got)
	}
	_, body = get(t, plainIdx, "/top-links?src=0&k=3&mode=ivfsq")
	if got := body["backend"]; got != "ivf" {
		t.Fatalf("unquantized ivfsq backend %v, want ivf", got)
	}
}

// TestFP16ModesOverHTTP: the fp16/ivffp16 modes are accepted on both
// top-k routes, answer from their backends, degrade honestly when the
// tier is not built, and healthz reports the fp16 flag plus the kernel
// dispatch table.
func TestFP16ModesOverHTTP(t *testing.T) {
	eng := testEngine(t, engine.WithIndex(engine.IndexConfig{
		IVF: true, NList: 2, NProbe: 2, FP16: true,
	}))
	s := New(eng)
	cases := []struct {
		path, backend string
	}{
		{"/top-links?src=0&k=3&mode=fp16", "fp16"},
		{"/top-links?src=0&k=3&mode=ivffp16", "ivffp16"},
		{"/top-links?src=0&k=3&mode=ivffp16&nprobe=1", "ivffp16"},
		{"/top-attrs?node=0&k=2&mode=fp16", "fp16"},
		{"/top-attrs?node=0&k=2&mode=ivffp16", "ivffp16"},
	}
	for _, c := range cases {
		code, body := get(t, s, c.path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", c.path, code, body)
		}
		if got := body["backend"]; got != c.backend {
			t.Fatalf("%s: backend %v, want %q", c.path, got, c.backend)
		}
	}
	// healthz carries the fp16 flag and the kernel dispatch table.
	_, health := get(t, s, "/healthz")
	idx := health["index"].(map[string]interface{})
	if idx["fp16"] != true {
		t.Fatalf("healthz index %v", idx)
	}
	kernels, ok := health["kernels"].(map[string]interface{})
	if !ok {
		t.Fatalf("healthz kernels section missing: %v", health["kernels"])
	}
	for _, op := range []string{"dot", "axpy", "gemm", "sq8dot", "sq8rows", "fp16dot"} {
		isa, ok := kernels[op].(string)
		if !ok || (isa != "generic" && isa != "avx2" && isa != "neon") {
			t.Fatalf("kernels[%q] = %v", op, kernels[op])
		}
	}
	// On an index without the tier the modes degrade with honest labels.
	plainIdx, _ := indexedServer(t)
	_, body := get(t, plainIdx, "/top-links?src=0&k=3&mode=fp16")
	if got := body["backend"]; got != "exact" {
		t.Fatalf("fp16 without tier: backend %v, want exact", got)
	}
	_, body = get(t, plainIdx, "/top-links?src=0&k=3&mode=ivffp16")
	if got := body["backend"]; got != "ivf" {
		t.Fatalf("ivffp16 without tier: backend %v, want ivf", got)
	}
}

// jsonString renders a decoded JSON fragment canonically for comparison.
func jsonString(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestVersionDuringIndexRebuild pins the update-applied-index-pending
// state: the response must carry the NEW model version with the scan
// backend (never a stale index), and flip to the indexed backend once
// the rebuild publishes.
func TestVersionDuringIndexRebuild(t *testing.T) {
	s, eng := indexedServer(t)

	_, body := get(t, s, "/top-links?src=0&k=3")
	if body["backend"] != "exact" || body["version"].(float64) != 1 {
		t.Fatalf("fresh engine: %v", body)
	}

	code, _ := post(t, s, "/update/edges", `{"edges":[{"src":0,"dst":5}]}`)
	if code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	// Manual rebuild mode: the index is still at version 1, the model at
	// 2 — exactly what a query sees mid-rebuild.
	for _, path := range []string{"/top-links?src=0&k=3", "/top-links?src=0&k=3&mode=ivf"} {
		_, body = get(t, s, path)
		if body["version"].(float64) != 2 {
			t.Fatalf("%s mid-rebuild: version %v, want 2", path, body["version"])
		}
		if body["backend"] != "scan" {
			t.Fatalf("%s mid-rebuild: backend %v, want scan", path, body["backend"])
		}
	}
	_, health := get(t, s, "/healthz")
	idx := health["index"].(map[string]interface{})
	if idx["enabled"] != true || idx["version"].(float64) != 1 {
		t.Fatalf("healthz index mid-rebuild: %v", idx)
	}

	eng.RebuildIndex()
	_, body = get(t, s, "/top-links?src=0&k=3&mode=ivf")
	if body["backend"] != "ivf" || body["version"].(float64) != 2 {
		t.Fatalf("post-rebuild: %v", body)
	}
	_, health = get(t, s, "/healthz")
	if idx := health["index"].(map[string]interface{}); idx["version"].(float64) != 2 {
		t.Fatalf("healthz index post-rebuild: %v", idx)
	}
}

// TestHealthzReportsShardGenerations drives a sharded engine over HTTP:
// /healthz reports the shard count and the index version every shard's
// generation shares, queries fan out across the shards (reported through
// the usual backend field), and the mid-rebuild state shows the index
// pinned at the previous version while queries scan at the new model
// version.
func TestHealthzReportsShardGenerations(t *testing.T) {
	eng := testEngine(t,
		engine.WithIndex(engine.IndexConfig{IVF: true, NList: 2, NProbe: 2, Shards: 3}),
		engine.WithManualIndexRebuild())
	s := New(eng)

	indexVersion := func(label string, want float64) {
		t.Helper()
		_, health := get(t, s, "/healthz")
		idx := health["index"].(map[string]interface{})
		if idx["shards"].(float64) != 3 || idx["version"].(float64) != want {
			t.Fatalf("%s healthz index: %v, want 3 shards at version %v", label, idx, want)
		}
		if _, ok := idx["shard_versions"]; ok {
			t.Fatalf("%s healthz index still reports shard_versions: %v", label, idx)
		}
	}
	indexVersion("fresh", 1)
	_, body := get(t, s, "/top-links?src=0&k=3")
	if body["backend"] != "exact" || body["version"].(float64) != 1 {
		t.Fatalf("sharded query: %v", body)
	}

	if code, _ := post(t, s, "/update/edges", `{"edges":[{"src":0,"dst":5}]}`); code != http.StatusOK {
		t.Fatalf("update status %d", code)
	}
	_, body = get(t, s, "/top-links?src=0&k=3")
	if body["backend"] != "scan" || body["version"].(float64) != 2 {
		t.Fatalf("mid-rebuild sharded query: %v", body)
	}
	indexVersion("mid-rebuild", 1)

	eng.RebuildIndex()
	indexVersion("post-rebuild", 2)
	_, body = get(t, s, "/top-links?src=0&k=3&mode=ivf")
	if body["backend"] != "ivf" || body["version"].(float64) != 2 {
		t.Fatalf("post-rebuild sharded query: %v", body)
	}
}

func TestBatchTopKThroughIndex(t *testing.T) {
	s, _ := indexedServer(t)
	code, body := post(t, s, "/batch", `{"queries":[
		{"op":"top-links","src":0,"k":3},
		{"op":"top-links","src":0,"k":3,"mode":"ivf"},
		{"op":"top-attrs","node":1,"k":0},
		{"op":"top-links","src":0,"k":-2},
		{"op":"top-links","src":0,"mode":"bogus"}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]interface{})
	if got := results[0].(map[string]interface{})["backend"]; got != "exact" {
		t.Fatalf("batch exact backend %v", got)
	}
	if got := results[1].(map[string]interface{})["backend"]; got != "ivf" {
		t.Fatalf("batch ivf backend %v", got)
	}
	// Explicit k < 1 and bad mode are per-query errors, not silent
	// rewrites and not batch failures.
	for _, i := range []int{2, 3, 4} {
		r := results[i].(map[string]interface{})
		if _, hasErr := r["error"]; !hasErr {
			t.Fatalf("result %d should carry an error: %v", i, r)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	s, _ := testServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/top-links?src=0&k=5", nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("goroutine %d: status %d", i, rec.Code)
			}
		}(i)
	}
	wg.Wait()
}
