package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in Prometheus text exposition
// format v0.0.4: families sorted by name, each with one # HELP and one
// # TYPE line followed by its series sorted by label set, histograms as
// cumulative _bucket{le=...} plus _sum and _count. Scrapes run
// concurrently with recording; for histograms the _count line is
// derived from the +Inf cumulative bucket so every exposed histogram is
// internally consistent (count == +Inf bucket) even mid-write.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var names []string
	r.families.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	for _, name := range names {
		v, _ := r.families.Load(name)
		if err := v.(*family).write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	typ := f.kind
	if typ == kindCountHistogram {
		typ = kindHistogram // same exposition, boundaries in counts
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, typ); err != nil {
		return err
	}
	m := *f.series.Load()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := m[k].write(w, f.name, f.kind); err != nil {
			return err
		}
	}
	return nil
}

func (s *series) write(w io.Writer, name, kind string) error {
	switch kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(name, s.labels), formatFloat(float64(s.c.Value())))
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(name, s.labels), formatFloat(s.g.Value()))
		return err
	case kindHistogram, kindCountHistogram:
		b, total := s.h.snapshot()
		var cum uint64
		for i := 0; i < numBuckets; i++ {
			cum += b[i]
			// Skip interior empty-prefix noise? No: Prometheus clients
			// expect every boundary, but 26 lines/series is heavy when
			// most are redundant. Emit a boundary only when its
			// cumulative count changes, plus the first and +Inf buckets
			// — cumulative semantics make the omitted lines exactly
			// reconstructible.
			if i != 0 && i != numBuckets-1 && b[i] == 0 {
				continue
			}
			le := "+Inf"
			if i < numBuckets-1 {
				le = formatFloat(s.h.upper(i))
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", joinLabels(s.labels, `le="`+le+`"`)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", s.labels), formatFloat(s.h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", s.labels), total)
		return err
	}
	return nil
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns the GET /metrics handler serving the text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		io.WriteString(w, b.String())
	})
}

// Snapshot returns every series as a flat JSON-friendly map keyed by
// the exposed series name (histograms become {count, sum_seconds,
// p50_ms, p95_ms, p99_ms} objects). This is the single source behind
// /healthz sections and the expvar publication in paneserve — the same
// cells /metrics reads, so the two surfaces cannot disagree.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	r.families.Range(func(_, v any) bool {
		f := v.(*family)
		for _, s := range *f.series.Load() {
			key := seriesName(f.name, s.labels)
			switch f.kind {
			case kindCounter:
				out[key] = s.c.Value()
			case kindGauge:
				out[key] = s.g.Value()
			case kindHistogram:
				sum := s.h.SummaryMs()
				out[key] = map[string]any{
					"count":       sum.Count,
					"sum_seconds": s.h.Sum(),
					"p50_ms":      sum.P50,
					"p95_ms":      sum.P95,
					"p99_ms":      sum.P99,
				}
			case kindCountHistogram:
				out[key] = map[string]any{
					"count": s.h.Count(),
					"sum":   s.h.Sum(),
					"p50":   s.h.Quantile(0.50),
					"p99":   s.h.Quantile(0.99),
				}
			}
		}
		return true
	})
	return out
}
