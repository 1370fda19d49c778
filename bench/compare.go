package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// extraBounds are the regression bounds of the figures the driver cannot
// gate — error_rate, which is 0 on a healthy run (any increase regresses);
// the tail, whose run-to-run spread on the reference box exceeds any bound
// the driver accepts; and what only mixed_rw yields (the driver wants
// every end-to-end metric from every workload) — so -compare does.
var extraBounds = []boundedMetric{
	{"error_rate", "ratio", "lower", 0},
	{"tail_ms", "ms", "lower", 0.25},
	{"write_ack_tail_ms", "ms", "lower", 0.25},
	{"first_write_ack_ms", "ms", "lower", 0.15},
	{"replica_lag_p50_ms", "ms", "lower", 0.10},
	{"replica_lag_tail_ms", "ms", "lower", 0.25},
}

// judged is every metric -compare and -calibrate look at.
func (b *benchmarkFile) judged() []boundedMetric {
	return append(append([]boundedMetric(nil), b.EndToEnd...), extraBounds...)
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func readReports(path string) ([]report, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	var reps []report
	sc := bufio.NewScanner(file)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, r)
	}
	return reps, sc.Err()
}

// values collects one metric of one workload over a file's untraced runs.
func values(reps []report, workload, name string) []float64 {
	var out []float64
	for _, r := range reps {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Outcome.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Extra[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// worseBy is how much worse b is than a, as a share of a; negative when b
// is better. Against a baseline of 0 any worsening is without bound.
func worseBy(a, b float64, better string) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	switch {
	case a != 0:
		return d / math.Abs(a)
	case d > 0:
		return math.Inf(1)
	}
	return 0
}

// judge applies the rule of the choosing-metrics guide: no worse than the
// bound is ok; where either side's own run-to-run spread exceeds the
// bound the metric cannot be resolved; otherwise it regressed.
func judge(worse, bound, spreadA, spreadB float64) string {
	switch {
	case spreadA > bound || spreadB > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}

func compareFiles(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	spec, err := readBenchmarkFile(specPath)
	if err == nil {
		var a, b []report
		if a, err = readReports(pathA); err == nil {
			b, err = readReports(pathB)
		}
		if err == nil {
			return printComparison(stdout, spec, a, b)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 1
}

// printComparison prints, per workload × metric, both medians, how much
// worse b is, the bound, and the verdict. It returns 1 if anything
// regressed.
func printComparison(w io.Writer, spec *benchmarkFile, a, b []report) int {
	code := 0
	fmt.Fprintf(w, "%-10s %-22s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "a", "b", "worse", "bound", "iqr(a)", "iqr(b)", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.judged() {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse := worseBy(median(va), median(vb), m.Better)
			verdict := judge(worse, m.Bound, relIQR(va), relIQR(vb))
			if verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-10s %-22s %14.6g %14.6g %+8.1f%% %6.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, median(va), median(vb), worse*100, m.Bound*100,
				relIQR(va)*100, relIQR(vb)*100, verdict)
		}
	}
	return code
}

func calibrateFile(stdout, stderr io.Writer, specPath, path string) int {
	spec, err := readBenchmarkFile(specPath)
	if err == nil {
		var reps []report
		if reps, err = readReports(path); err == nil {
			printCalibration(stdout, spec, reps)
			return 0
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 1
}

// maxBound is the largest bound BENCHMARK.json may carry.
const maxBound = 0.25

// printCalibration prints each metric's run-to-run spread per workload
// and the bound the issue's rule derives from it: the larger of the
// recorded bound and twice the widest relative inter-quartile range. A
// metric whose spread exceeds even that (or the 0.25 cap) is unresolved.
func printCalibration(w io.Writer, spec *benchmarkFile, reps []report) {
	fmt.Fprintf(w, "%-22s %-10s %5s %14s %8s\n", "metric", "workload", "runs", "median", "iqr")
	for _, m := range spec.judged() {
		widest := 0.0
		for _, wl := range spec.Workloads {
			v := values(reps, wl.Name, m.Name)
			if len(v) == 0 {
				continue
			}
			sort.Float64s(v)
			widest = math.Max(widest, relIQR(v))
			fmt.Fprintf(w, "%-22s %-10s %5d %14.6g %7.2f%%\n", m.Name, wl.Name, len(v), median(v), relIQR(v)*100)
		}
		bound := math.Min(math.Max(m.Bound, 2*widest), maxBound)
		status := "ok"
		if widest > bound {
			status = "unresolved"
		}
		fmt.Fprintf(w, "%-22s %-10s recorded bound %.3f, widest iqr %.2f%%, calibrated bound %.3f  %s\n",
			m.Name, "=", m.Bound, widest*100, bound, status)
	}
}
