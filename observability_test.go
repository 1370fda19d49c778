package pane_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/engine"
	"pane/internal/server"
)

// scrapeMetrics fetches /metrics over real TCP and parses every sample
// line into series -> value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestMetricsEndToEnd boots the full serving stack on a live listener,
// drives query and update traffic, and scrapes /metrics twice: every
// core serving-path series must be present, and the counters among them
// must be monotone between scrapes.
func TestMetricsEndToEnd(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{
		Name: "obsint", N: 500, AvgOutDeg: 5, D: 30, AttrsPer: 3,
		Communities: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Train(g, core.Config{K: 16, Alpha: 0.5, Eps: 0.1, Seed: 1},
		engine.WithIndex(engine.IndexConfig{IVF: true, Quantize: true, Shards: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(eng))
	defer ts.Close()

	traffic := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for _, mode := range []string{"exact", "ivf", "sq8"} {
				resp, err := http.Get(fmt.Sprintf("%s/top-links?src=%d&k=5&mode=%s", ts.URL, i%g.N, mode))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("top-links %s status %d", mode, resp.StatusCode)
				}
			}
			resp, err := http.Post(ts.URL+"/update/edges", "application/json",
				strings.NewReader(fmt.Sprintf(`{"edges":[{"src":%d,"dst":%d}]}`, i%g.N, (i+7)%g.N)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("update status %d", resp.StatusCode)
			}
		}
	}

	traffic(3)
	eng.WaitForIndex()
	first := scrapeMetrics(t, ts.URL)
	core := []string{
		`pane_http_requests_total{code="200",route="/top-links"}`,
		`pane_http_requests_total{code="200",route="/update/edges"}`,
		`pane_http_request_duration_seconds_count{route="/top-links"}`,
		`pane_topk_requests_total{backend="exact",route="/top-links"}`,
		`pane_topk_requests_total{backend="ivf",route="/top-links"}`,
		`pane_topk_requests_total{backend="sq8",route="/top-links"}`,
		`pane_query_stage_duration_seconds_count{stage="fanout"}`,
		`pane_query_stage_duration_seconds_count{stage="merge"}`,
		// Single-edge deltas on a 500-node graph sit far below the 0.2
		// dirty-fraction threshold, so the updates and their index cycles
		// take the incremental path; the full build cycles are the
		// construction-time ones.
		`pane_updates_total{path="incremental"}`,
		`pane_update_stage_duration_seconds_count{stage="graph"}`,
		`pane_update_stage_duration_seconds_count{stage="affinity"}`,
		`pane_update_stage_duration_seconds_count{stage="ccd"}`,
		`pane_update_stage_duration_seconds_count{stage="scorer"}`,
		`pane_index_build_cycles_total{kind="full"}`,
		`pane_index_build_cycles_total{kind="incremental"}`,
		// The refresh's books: rows through a codec, bytes a generation
		// does not share with its parent, and how long reads scanned.
		`pane_index_refresh_rows_encoded_total{backend="exact"}`,
		`pane_index_refresh_bytes_copied_total`,
		`pane_index_publish_lag_seconds_count`,
		"pane_model_version",
	}
	for _, series := range core {
		if v, ok := first[series]; !ok || v <= 0 {
			t.Fatalf("core series %s absent or zero (%v) after traffic", series, v)
		}
	}

	// A batch's top-k members are scanned together: one batch_scan
	// observation and one pane_batch_queries sample of 3, and nothing added
	// to the per-query fan-out stage, whose samples would then mix units.
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(
		`{"queries":[{"op":"top-links","src":1,"k":5},{"op":"top-links","src":2,"k":5},{"op":"top-attrs","node":3,"k":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	batched := scrapeMetrics(t, ts.URL)
	for series, grew := range map[string]float64{
		`pane_query_stage_duration_seconds_count{stage="batch_scan"}`: 1,
		`pane_query_stage_duration_seconds_count{stage="fanout"}`:     0,
		`pane_query_stage_duration_seconds_count{stage="merge"}`:      0,
		`pane_batch_queries_count`:                                    1,
		`pane_batch_queries_sum`:                                      3,
	} {
		if got := batched[series] - first[series]; got != grew {
			t.Fatalf("series %s grew by %v over one 3-member batch, want %v", series, got, grew)
		}
	}
	for _, series := range []string{
		`pane_index_rows_scored_total{backend="exact"}`,
		`pane_index_rows_reranked_total{backend="exact"}`,
		`pane_index_bytes_streamed_total{backend="exact"}`,
	} {
		if first[series] <= 0 || batched[series] <= first[series] {
			t.Fatalf("series %s: %v before the batch, %v after", series, first[series], batched[series])
		}
	}

	traffic(2)
	eng.WaitForIndex()
	second := scrapeMetrics(t, ts.URL)
	for _, series := range core {
		if second[series] < first[series] {
			t.Fatalf("series %s went backwards: %v -> %v", series, first[series], second[series])
		}
	}
	// Strict growth where traffic guarantees it.
	for _, series := range []string{
		`pane_http_requests_total{code="200",route="/top-links"}`,
		`pane_updates_total{path="incremental"}`,
		"pane_model_version",
	} {
		if second[series] <= first[series] {
			t.Fatalf("series %s did not grow under traffic: %v -> %v", series, first[series], second[series])
		}
	}
}
