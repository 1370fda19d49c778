// Package obs is the serving stack's observability substrate: a
// dependency-free metrics registry (the module is stdlib-only and stays
// that way) holding counters, gauges, and log-bucketed latency
// histograms, exposed as Prometheus text exposition and as a JSON
// snapshot. Recording on the hot path is lock-free: every metric is a
// handful of atomic words, and series lookup reads a copy-on-write map
// through one atomic pointer — registration (the first time a
// name+labels combination is seen) takes a mutex, recording never does.
//
// Naming follows the Prometheus conventions the rest of the repo
// documents in README "Observability": every family is prefixed
// pane_<subsystem>_, counters end in _total, durations are histograms in
// seconds named *_duration_seconds, and label keys are closed enums
// (route, code, backend, kind, stage) — never unbounded user input, so
// series cardinality is fixed at compile time.
//
// Typical wiring: the engine owns one Registry per process (or per
// engine in tests), resolves its metric handles once at construction,
// and records through the handles; the HTTP layer serves
// Registry.Handler at GET /metrics. Handles for a given name+labels are
// canonical — asking twice returns the same pointer — which is what lets
// /healthz and /metrics report from the same underlying cells and never
// disagree.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value pair attached to a series. Keys must match the
// Prometheus label-name charset; values are arbitrary strings (escaped
// at exposition time) but should come from small closed sets to bound
// cardinality.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry is a set of metric families. The zero value is NOT usable;
// call NewRegistry.
type Registry struct {
	families sync.Map // name -> *family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Metric kinds, matching the TYPE line of the text exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
	// kindCountHistogram is exposed as TYPE histogram; it is a kind of its
	// own so one name cannot be both a latency and a count family.
	kindCountHistogram = "count_histogram"
)

// family is one metric family: a name, HELP/TYPE metadata fixed at first
// registration, and its series behind a copy-on-write map (reads are one
// atomic load; only registering a NEW series takes mu).
type family struct {
	name string
	help string
	kind string

	mu     sync.Mutex
	series atomic.Pointer[map[string]*series]
}

// series is one labeled instance of a family. Exactly one of c/g/h is
// non-nil, matching the family kind.
type series struct {
	labels string // canonical rendered label set, e.g. `route="/healthz"`
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Counter is a monotonically increasing uint64. All methods are safe for
// concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down (in-flight requests,
// frontier sizes, the current model version). Lock-free via atomic bit
// storage; Add is a CAS loop.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (delta may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Counter returns the canonical counter for name+labels, creating family
// and series on first use. help is fixed by the first registration of
// the family; a later registration under the same name with a different
// kind panics (a programmer error tests catch immediately — silently
// serving a family whose TYPE line lies would corrupt every scrape).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, labels).c
}

// Gauge returns the canonical gauge for name+labels; see Counter for the
// registration rules.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, labels).g
}

// Histogram returns the canonical latency histogram for name+labels; see
// Counter for the registration rules and NewHistogram for the bucket
// layout.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.lookup(name, help, kindHistogram, labels).h
}

// CountHistogram returns the canonical count histogram for name+labels
// (see NewCountHistogram); see Counter for the registration rules.
func (r *Registry) CountHistogram(name, help string, labels ...Label) *Histogram {
	return r.lookup(name, help, kindCountHistogram, labels).h
}

func (r *Registry) lookup(name, help, kind string, labels []Label) *series {
	f := r.family(name, help, kind)
	key := labelKey(labels)
	if s, ok := (*f.series.Load())[key]; ok {
		return s
	}
	return f.register(key, kind)
}

func (r *Registry) family(name, help, kind string) *family {
	if v, ok := r.families.Load(name); ok {
		f := v.(*family)
		f.check(kind)
		return f
	}
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f := &family{name: name, help: help, kind: kind}
	empty := map[string]*series{}
	f.series.Store(&empty)
	if v, loaded := r.families.LoadOrStore(name, f); loaded {
		f = v.(*family)
		f.check(kind)
	}
	return f
}

func (f *family) check(kind string) {
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and re-requested as %s", f.name, f.kind, kind))
	}
}

// register adds the series for key under mu, copying the map so readers
// never see a map mid-write. Double-checked: a concurrent registration
// of the same key wins harmlessly.
func (f *family) register(key, kind string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.series.Load()
	if s, ok := old[key]; ok {
		return s
	}
	s := &series{labels: key}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = NewHistogram()
	case kindCountHistogram:
		s.h = NewCountHistogram()
	}
	next := make(map[string]*series, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = s
	f.series.Store(&next)
	return s
}

// labelKey renders labels canonically (sorted by key) so that the same
// set in any order maps to the same series. Keys are validated here —
// the one place every registration funnels through.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// validName reports whether s matches the Prometheus metric/label name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabelValue applies the exposition-format escapes for label
// values: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp applies the exposition-format escapes for HELP text:
// backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}
