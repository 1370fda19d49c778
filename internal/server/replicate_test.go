package server

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"pane/internal/engine"
	"pane/internal/store"
	"pane/internal/wal"
)

// walServer builds a WAL-attached leader server over the running
// example, every update on the patched path (a one-edge delta is 2 of its
// 6 rows, past both default thresholds).
func walServer(t *testing.T, walOpts wal.Options, srvOpts ...Option) (*Server, *engine.Engine, *wal.Log) {
	t.Helper()
	eng := testEngine(t, engine.WithRefreshThreshold(1), engine.WithAffinityThreshold(1))
	log, err := wal.Open(t.TempDir(), walOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	return New(eng, srvOpts...), eng, log
}

// getRaw performs a request and returns the raw response.
func getRaw(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// decodeFrames parses a /replicate body into records.
func decodeFrames(t *testing.T, body []byte) []wal.Record {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(body))
	var recs []wal.Record
	for {
		rec, err := wal.ReadFrame(br)
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(recs), err)
		}
		recs = append(recs, rec)
	}
}

func TestReplicateStreamsRecords(t *testing.T) {
	s, _, _ := walServer(t, wal.Options{Sync: wal.SyncNone})

	// Caught-up followers get an empty 200 with the leader's version.
	rec := getRaw(t, s, "/replicate?from=1")
	if rec.Code != http.StatusOK || rec.Header().Get(VersionHeader) != "1" {
		t.Fatalf("empty log: %d, version %q", rec.Code, rec.Header().Get(VersionHeader))
	}
	if len(decodeFrames(t, rec.Body.Bytes())) != 0 {
		t.Fatal("records from an empty log")
	}

	if code, body := post(t, s, "/update/edges", `{"edges":[{"src":0,"dst":5}]}`); code != http.StatusOK {
		t.Fatalf("update: %d %v", code, body)
	}
	if code, body := post(t, s, "/update/attrs", `{"attrs":[{"node":1,"attr":2,"weight":0.5}]}`); code != http.StatusOK {
		t.Fatalf("update: %d %v", code, body)
	}

	rec = getRaw(t, s, "/replicate?from=1")
	if rec.Code != http.StatusOK || rec.Header().Get(VersionHeader) != "3" {
		t.Fatalf("after updates: %d, version %q", rec.Code, rec.Header().Get(VersionHeader))
	}
	recs := decodeFrames(t, rec.Body.Bytes())
	if len(recs) != 2 || recs[0].Version != 2 || recs[1].Version != 3 {
		t.Fatalf("got %d records %+v", len(recs), recs)
	}
	if len(recs[0].Edges) != 1 || recs[0].Edges[0].Src != 0 || recs[0].Edges[0].Dst != 5 {
		t.Fatalf("record 2 delta: %+v", recs[0])
	}
	if len(recs[1].Attrs) != 1 || recs[1].Attrs[0].Weight != 0.5 {
		t.Fatalf("record 3 delta: %+v", recs[1])
	}

	// Paging.
	rec = getRaw(t, s, "/replicate?from=1&max=1")
	if got := decodeFrames(t, rec.Body.Bytes()); len(got) != 1 || got[0].Version != 2 {
		t.Fatalf("max=1 page: %+v", got)
	}
	// Caught up again.
	rec = getRaw(t, s, "/replicate?from=3")
	if len(decodeFrames(t, rec.Body.Bytes())) != 0 {
		t.Fatal("records past the tail")
	}

	// Parameter validation.
	for _, path := range []string{"/replicate", "/replicate?from=x", "/replicate?from=1&max=0"} {
		if rec := getRaw(t, s, path); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", path, rec.Code)
		}
	}
}

func TestReplicateWithoutWAL(t *testing.T) {
	s, _ := testServer(t)
	if rec := getRaw(t, s, "/replicate?from=1"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no WAL: %d, want 503", rec.Code)
	}
}

func TestReplicateGoneAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	s, eng, _ := walServer(t, wal.Options{Sync: wal.SyncNone, SegmentBytes: 1},
		WithSnapshotPath(filepath.Join(dir, "snap.pane")))
	for i := 0; i < 4; i++ {
		if code, body := post(t, s, "/update/edges", `{"edges":[{"src":0,"dst":5}]}`); code != http.StatusOK {
			t.Fatalf("update: %d %v", code, body)
		}
	}
	if code, body := post(t, s, "/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot: %d %v", code, body)
	}
	rec := getRaw(t, s, "/replicate?from=1")
	if rec.Code != http.StatusGone {
		t.Fatalf("compacted position: %d, want 410", rec.Code)
	}
	// The bundle path the 410 directs followers to still works.
	if v := eng.Version(); v != 5 {
		t.Fatalf("leader at %d", v)
	}
	bun := getRaw(t, s, "/bundle")
	if bun.Code != http.StatusOK || bun.Header().Get(VersionHeader) != "5" {
		t.Fatalf("bundle: %d, version %q", bun.Code, bun.Header().Get(VersionHeader))
	}
}

func TestBundleEndpoint(t *testing.T) {
	s, eng := testServer(t)
	rec := getRaw(t, s, "/bundle")
	_ = eng
	if rec.Code != http.StatusOK {
		t.Fatalf("bundle: %d", rec.Code)
	}
	b, err := store.ReadBundle(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if b.ModelVersion != 1 || b.Xf.Rows != 6 || b.Y.Rows != 3 {
		t.Fatalf("decoded bundle v%d %dx%d", b.ModelVersion, b.Xf.Rows, b.Y.Rows)
	}
}

func TestReadOnlyServer(t *testing.T) {
	eng := testEngine(t)
	s := New(eng, WithReadOnly(), WithSnapshotPath(filepath.Join(t.TempDir(), "s.pane")))
	for _, c := range []struct{ path, payload string }{
		{"/update/edges", `{"edges":[{"src":0,"dst":5}]}`},
		{"/update/attrs", `{"attrs":[{"node":1,"attr":2,"weight":0.5}]}`},
		{"/snapshot", ""},
	} {
		if code, _ := post(t, s, c.path, c.payload); code != http.StatusForbidden {
			t.Fatalf("%s on read-only server: %d, want 403", c.path, code)
		}
	}
	if v := eng.Version(); v != 1 {
		t.Fatalf("read-only server mutated the engine to version %d", v)
	}
	// Reads and batches still serve.
	if code, _ := get(t, s, "/link-score?src=0&dst=1"); code != http.StatusOK {
		t.Fatalf("read on read-only server: %d", code)
	}
	if code, _ := post(t, s, "/batch", `{"queries":[{"op":"link-score","src":0,"dst":1}]}`); code != http.StatusOK {
		t.Fatalf("batch on read-only server: %d", code)
	}
	if code, body := get(t, s, "/healthz"); code != http.StatusOK || body["read_only"] != true {
		t.Fatalf("healthz read_only: %d %v", code, body["read_only"])
	}
}

func TestHealthSections(t *testing.T) {
	eng := testEngine(t)
	s := New(eng, WithHealthSection("replication", func() interface{} {
		return map[string]int{"lag": 7}
	}))
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	sec, ok := body["replication"].(map[string]interface{})
	if !ok || sec["lag"] != float64(7) {
		t.Fatalf("replication section missing or wrong: %v", body["replication"])
	}
}
