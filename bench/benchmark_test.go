package main

import (
	"bytes"
	"strings"
	"testing"
)

// BENCHMARK.json and the harness must name the same workloads and
// metrics, in the same order and units: the driver reads the one and runs
// the other.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, file []boundedMetric, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(file), len(code))
		}
		for i, m := range file {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
	}
}

func reportsOf(workload string, name string, values ...float64) []report {
	var reps []report
	for _, v := range values {
		reps = append(reps, report{Workload: workload, Outcome: outcome{Metrics: map[string]metric{name: {v, "ms"}}}})
	}
	return reps
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchmarkFile{EndToEnd: []boundedMetric{{"p50_ms", "ms", "lower", 0.10}, {"qps", "1/s", "higher", 0.10}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{wlReadFlat})
	verdict := func(a, b []report) (string, int) {
		var out bytes.Buffer
		code := printComparison(&out, spec, a, b)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		fields := strings.Fields(lines[len(lines)-1])
		return fields[len(fields)-1], code
	}
	steady := reportsOf(wlReadFlat, "p50_ms", 1.00, 1.01, 0.99, 1.00, 1.02)
	if v, code := verdict(steady, reportsOf(wlReadFlat, "p50_ms", 1.04, 1.05, 1.03, 1.05, 1.06)); v != "ok" || code != 0 {
		t.Errorf("5 %% slower within a 10 %% bound: %s (exit %d)", v, code)
	}
	if v, code := verdict(steady, reportsOf(wlReadFlat, "p50_ms", 1.20, 1.21, 1.19, 1.22, 1.20)); v != "regressed" || code != 1 {
		t.Errorf("20 %% slower: %s (exit %d)", v, code)
	}
	if v, _ := verdict(steady, reportsOf(wlReadFlat, "p50_ms", 0.8, 1.6, 1.1, 2.0, 0.9)); v != "unresolved" {
		t.Errorf("a side whose own spread exceeds the bound: %s", v)
	}
	// Against a baseline of zero (error_rate) any increase regresses.
	spec.EndToEnd = append(spec.EndToEnd, boundedMetric{"error_rate", "ratio", "lower", 0})
	clean := reportsOf(wlReadFlat, "error_rate", 0, 0, 0)
	if v, _ := verdict(clean, reportsOf(wlReadFlat, "error_rate", 0, 0, 0)); v != "ok" {
		t.Errorf("no errors on either side: %s", v)
	}
	if v, code := verdict(clean, reportsOf(wlReadFlat, "error_rate", 0.001, 0.001, 0.001)); v != "regressed" || code != 1 {
		t.Errorf("errors where there were none: %s (exit %d)", v, code)
	}
	// Direction: for a higher-is-better metric a drop is what regresses.
	fast := reportsOf(wlReadFlat, "qps", 1000)
	if v, _ := verdict(fast, reportsOf(wlReadFlat, "qps", 1300)); v != "ok" {
		t.Errorf("30 %% more throughput: %s", v)
	}
	if v, _ := verdict(fast, reportsOf(wlReadFlat, "qps", 800)); v != "regressed" {
		t.Errorf("20 %% less throughput: %s", v)
	}
}
