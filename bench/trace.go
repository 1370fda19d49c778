package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// harness around the call (nothing inside the program is instrumented).
// Spans of one request share Op. Times are nanoseconds since the trace
// began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Replayed marks a call the harness could not observe inside its
	// parent (the server calls the engine, the engine calls the index)
	// and so repeated right after it on the same input. Its interval lies
	// after the parent's; self-time arithmetic re-bases it onto the
	// parent's start.
	Replayed bool `json:"replayed,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished call and returns its span id.
func (r *recorder) add(name string, op, parent int, start, end time.Time, replayed bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Replayed: replayed,
	})
	return id
}

// reparent sets a span's parent once the parent's id is known: a handler
// span ends, and is recorded, before the round trip around it.
func (r *recorder) reparent(id, parent int) {
	r.mu.Lock()
	r.spans[id-1].Parent = parent
	r.mu.Unlock()
}

// selfNS returns how much of [start,end) no child interval covers.
// Children may overlap one another (a parallel fan-out) and may stick out
// of the parent; both are counted once and only inside the parent.
func selfNS(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		if c[0] < start {
			c[0] = start
		}
		if c[1] > end {
			c[1] = end
		}
		if c[1] > c[0] {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, upto := int64(0), start
	for _, c := range iv {
		if c[0] > upto {
			upto = c[0]
		}
		if c[1] > upto {
			covered += c[1] - upto
			upto = c[1]
		}
	}
	return end - start - covered
}

// selfTimes computes every span's self time: its duration minus the part
// its children cover, a replayed child counting from the parent's start.
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		iv := [2]int64{s.Start, s.End}
		if s.Replayed {
			iv = [2]int64{p.Start, p.Start + (s.End - s.Start)}
		}
		kids[s.Parent] = append(kids[s.Parent], iv)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = selfNS(s.Start, s.End, kids[s.ID])
	}
	return self
}

// tracedHandler records a span around every ServeHTTP it forwards while a
// replayed op is current. The replay is serial, so one atomic names the op.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
	op   atomic.Int64 // current op id; 0: not tracing
	last atomic.Int64 // id of the span recorded for the current op
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := int(t.op.Load())
	// The follower's /replicate polls cross the same listener; they are
	// not part of any op.
	if op == 0 || strings.HasPrefix(r.URL.Path, "/replicate") || r.URL.Path == "/bundle" {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	t.last.Store(int64(t.rec.add("server.ServeHTTP", op, 0, start, time.Now(), false)))
}

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Env      env    `json:"env"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
