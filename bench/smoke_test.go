package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// smokeSpec is the benchmark at a size a unit test can afford.
var smokeSpec = spec{
	N: 2000, K: 32,
	Warmup:   200 * time.Millisecond,
	ReadRate: 200, WriteRate: 6,
	TraceOps: 40, TraceBatches: 4, SweepQueries: 8, SweepBatches: 2, SweepWrites: 6,
}

// All four workloads end to end — real server, real HTTP, oracle on — and
// the traced run of one read and the write workload.
func TestSmokeAllWorkloads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
	dir := t.TempDir()
	for _, w := range workloadNames {
		rep, err := execute(smokeSpec, w, 1, 1, 0, dir)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rep.Outcome.Correct || rep.Outcome.Failed != 0 || rep.Outcome.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", w, rep.Outcome.Correct, rep.Outcome.Attempted, rep.Outcome.Failed, rep.Notes)
		}
		if rep.Extra["oracle_checked"].Value == 0 || rep.Extra["verified"].Value == 0 {
			t.Errorf("%s: the oracle checked %v responses of the window and %v of the verification pass",
				w, rep.Extra["oracle_checked"].Value, rep.Extra["verified"].Value)
		}
		if _, ok := rep.Extra["first_write_ack_ms"]; !ok {
			t.Errorf("%s: no first_write_ack_ms", w)
		}
		for _, d := range endToEnd {
			if m, ok := rep.Outcome.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: %s = %+v (present %v)", w, d.name, m, ok)
			}
		}
		if len(rep.Outcome.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want exactly the %d end-to-end ones", w, len(rep.Outcome.Metrics), len(endToEnd))
		}
		if w == wlMixedRW {
			for _, name := range []string{"write_ack_tail_ms", "replica_lag_p50_ms", "replica_lag_tail_ms", "gen_late_p99_ms"} {
				if _, ok := rep.Extra[name]; !ok {
					t.Errorf("mixed_rw: no %s", name)
				}
			}
		} else if rep.Extra["engine.fallback_share"].Value != 0 {
			t.Errorf("%s: fallback answers on a read workload", w)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil || len(entries) != 0 {
		t.Errorf("runs left %d entries in the scratch directory (%v)", len(entries), err)
	}
}

func TestSmokeTracedRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
	dir := t.TempDir()
	for _, w := range []string{wlReadIVF, wlMixedRW} {
		rep, err := execute(smokeSpec, w, 2, 1, 1, dir)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rep.Outcome.Correct {
			t.Errorf("%s: traced run incorrect: failed=%d notes=%v", w, rep.Outcome.Failed, rep.Notes)
		}
		for _, d := range perLayer {
			if m, ok := rep.Outcome.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: %s = %+v (present %v)", w, d.name, m, ok)
			}
		}
		if len(rep.Outcome.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want exactly the %d per-layer ones", w, len(rep.Outcome.Metrics), len(perLayer))
		}
		if v := rep.Outcome.Metrics["replica.bundle_fetches"].Value; v != 0 {
			t.Errorf("%s: the follower fell back to %v bundle fetches", w, v)
		}
		data, err := os.ReadFile(filepath.Join(dir, "trace_"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		names := map[string]int{}
		for _, s := range tf.Spans {
			names[s.Name]++
			if s.End < s.Start || s.ID == 0 {
				t.Fatalf("bad span %+v", s)
			}
		}
		for _, want := range []string{"transport.roundtrip", "server.ServeHTTP", "engine.TopLinks", "index.SearchSharded", "index.fanout", "index.merge", "engine.ApplyEdges"} {
			if names[want] == 0 {
				t.Errorf("%s: no %s span in the trace", w, want)
			}
		}
	}
}
