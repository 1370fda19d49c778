package obs

import (
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sampleRe matches one exposition sample line: a valid series name, an
// optional label block, one space, one value.
var sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_:][a-zA-Z0-9_:]*="(\\.|[^"\\])*"(,[a-zA-Z_:][a-zA-Z0-9_:]*="(\\.|[^"\\])*")*\})? (NaN|[+-]Inf|-?[0-9][0-9.eE+-]*)$`)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("pane_test_requests_total", "Requests.", L("route", "/a"), L("code", "200")).Add(3)
	r.Counter("pane_test_requests_total", "Requests.", L("route", "/b"), L("code", "500")).Inc()
	r.Gauge("pane_test_inflight", "In flight.").Set(2)
	h := r.Histogram("pane_test_duration_seconds", "Latency.", L("route", "/a"))
	h.Observe(500 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(time.Minute) // +Inf bucket
	// A count histogram: the same buckets read as sizes, not seconds.
	sizes := r.CountHistogram("pane_test_batch_queries", "Queries per batch.")
	for _, n := range []int{1, 32, 33} {
		sizes.ObserveCount(n)
	}
	// Values needing escapes must render as valid exposition.
	r.Counter("pane_test_escapes_total", "Help with \\ and\nnewline.", L("v", "a\"b\\c\nd")).Inc()
	return r
}

// TestExpositionLint renders a registry and lints every line of the
// output against the text-format grammar: HELP then TYPE once per
// family, families in sorted order, every sample parseable, no
// duplicate series.
func TestExpositionLint(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition does not end in a newline")
	}
	var families []string
	seenSeries := map[string]bool{}
	expectTyped := "" // family name a # TYPE must follow for
	for i, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !validName(name) {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
			families = append(families, name)
			expectTyped = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if fields[0] != expectTyped {
				t.Fatalf("line %d: TYPE for %q, want %q (must follow its HELP)", i+1, fields[0], expectTyped)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown TYPE %q", i+1, fields[1])
			}
			expectTyped = ""
		default:
			if !sampleRe.MatchString(line) {
				t.Fatalf("line %d: unparseable sample: %q", i+1, line)
			}
			series := line[:strings.LastIndexByte(line, ' ')]
			if seenSeries[series] {
				t.Fatalf("line %d: duplicate series %q", i+1, series)
			}
			seenSeries[series] = true
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Fatalf("families not sorted: %v", families)
	}
	for _, want := range []string{
		`pane_test_requests_total{code="200",route="/a"} 3`,
		`pane_test_requests_total{code="500",route="/b"} 1`,
		`pane_test_inflight 2`,
		"# TYPE pane_test_batch_queries histogram",
		`pane_test_batch_queries_bucket{le="1"} 1`,
		`pane_test_batch_queries_bucket{le="32"} 2`,
		`pane_test_batch_queries_bucket{le="64"} 3`,
		`pane_test_batch_queries_bucket{le="+Inf"} 3`,
		`pane_test_batch_queries_sum 66`,
		`pane_test_batch_queries_count 3`,
		`pane_test_escapes_total{v="a\"b\\c\nd"} 1`,
		"# HELP pane_test_escapes_total Help with \\\\ and\\nnewline.",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramExposition checks the cumulative-bucket contract: le
// bounds strictly increase, cumulative counts never decrease, the +Inf
// bucket is present and equals _count, and _sum is there.
func TestHistogramExposition(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	bucketRe := regexp.MustCompile(`^pane_test_duration_seconds_bucket\{route="/a",le="([^"]+)"\} (\d+)$`)
	var (
		lastLe  = -1.0
		lastCum = uint64(0)
		infCum  uint64
		sawInf  bool
		count   uint64
		sawCnt  bool
	)
	for _, line := range strings.Split(b.String(), "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			cum, _ := strconv.ParseUint(m[2], 10, 64)
			if cum < lastCum {
				t.Fatalf("cumulative bucket count decreased at %q", line)
			}
			lastCum = cum
			if m[1] == "+Inf" {
				sawInf, infCum = true, cum
				continue
			}
			le, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", m[1], err)
			}
			if le <= lastLe {
				t.Fatalf("le bounds not increasing at %q", line)
			}
			lastLe = le
		}
		if rest, ok := strings.CutPrefix(line, `pane_test_duration_seconds_count{route="/a"} `); ok {
			count, _ = strconv.ParseUint(rest, 10, 64)
			sawCnt = true
		}
	}
	if !sawInf {
		t.Fatal("no +Inf bucket exposed")
	}
	if !sawCnt {
		t.Fatal("no _count exposed")
	}
	if infCum != count || count != 3 {
		t.Fatalf("+Inf bucket %d and _count %d must both be 3", infCum, count)
	}
	if !strings.Contains(b.String(), `pane_test_duration_seconds_sum{route="/a"} `) {
		t.Fatal("no _sum exposed")
	}
}

func TestHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	testRegistry().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "pane_test_requests_total") {
		t.Fatal("body missing expected series")
	}
}

func TestSnapshot(t *testing.T) {
	snap := testRegistry().Snapshot()
	if v, ok := snap[`pane_test_requests_total{code="200",route="/a"}`]; !ok || v.(uint64) != 3 {
		t.Fatalf("snapshot counter = %v (present %v), want 3", v, ok)
	}
	if v, ok := snap["pane_test_inflight"]; !ok || v.(float64) != 2 {
		t.Fatalf("snapshot gauge = %v (present %v), want 2", v, ok)
	}
	h, ok := snap[`pane_test_duration_seconds{route="/a"}`].(map[string]any)
	if !ok {
		t.Fatal("snapshot histogram missing")
	}
	if h["count"].(uint64) != 3 {
		t.Fatalf("snapshot histogram count = %v, want 3", h["count"])
	}
	if h["sum_seconds"].(float64) < 60 {
		t.Fatalf("snapshot histogram sum %v lost the 60s observation", h["sum_seconds"])
	}
	sizes, ok := snap["pane_test_batch_queries"].(map[string]any)
	if !ok || sizes["count"].(uint64) != 3 || sizes["sum"].(float64) != 66 {
		t.Fatalf("snapshot count histogram = %v, want 3 observations summing to 66", sizes)
	}
	if p50 := sizes["p50"].(float64); p50 <= 1 || p50 > 32 {
		t.Fatalf("snapshot count histogram p50 = %v, want within the (1, 32] bucket", p50)
	}
}
