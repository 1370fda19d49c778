package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"pane/internal/engine"
	"pane/internal/graph"
)

// The four workloads. Names are part of BENCHMARK.json and of every later
// issue that quotes a number, so they never change.
const (
	wlReadFlat = "read_flat"
	wlReadIVF  = "read_ivf"
	wlBatch    = "batch"
	wlMixedRW  = "mixed_rw"
)

var workloadNames = []string{wlReadFlat, wlReadIVF, wlBatch, wlMixedRW}

const (
	topK      = 10 // k of every top-k request
	batchSize = 32 // top-links queries per /batch request
	edgesPer  = 8  // edges per /update/edges request
)

type opKind uint8

const (
	opTopLinks opKind = iota
	opTopAttrs
	opLinkScore
	opBatch
	opUpdate
)

// op is one generated request. The server sees only what request()
// renders; the rest is kept for the oracle.
type op struct {
	kind  opKind
	mode  string // top-links backend mode
	node  int    // src (top-links, link-score) or node (top-attrs)
	dst   int    // link-score
	srcs  []int  // batch
	edges []graph.Edge
}

// exact reports whether the op's answer must match the oracle id for id
// (as opposed to feeding recall_at_10).
func (o op) exact() bool {
	return o.kind != opTopLinks || o.mode == engine.ModeExact
}

// queries is how many queries the op carries for qps and bytes_per_query.
func (o op) queries() int {
	if o.kind == opBatch {
		return len(o.srcs)
	}
	return 1
}

// request renders the op as the HTTP request the server receives.
func (o op) request() (method, target string, body []byte) {
	switch o.kind {
	case opTopLinks:
		return "GET", fmt.Sprintf("/top-links?src=%d&k=%d&mode=%s", o.node, topK, o.mode), nil
	case opTopAttrs:
		return "GET", fmt.Sprintf("/top-attrs?node=%d&k=%d", o.node, topK), nil
	case opLinkScore:
		return "GET", fmt.Sprintf("/link-score?src=%d&dst=%d", o.node, o.dst), nil
	case opBatch:
		return "POST", "/batch", mustJSON(map[string]interface{}{"queries": o.batchQueries()})
	case opUpdate:
		type edge struct {
			Src int `json:"src"`
			Dst int `json:"dst"`
		}
		edges := make([]edge, len(o.edges))
		for i, e := range o.edges {
			edges[i] = edge{e.Src, e.Dst}
		}
		return "POST", "/update/edges", mustJSON(map[string]interface{}{"edges": edges})
	}
	panic("bench: unknown op kind")
}

// batchQueries is the batch as engine.Execute takes it — the same value
// the server decodes from request()'s body.
func (o op) batchQueries() []engine.Query {
	k := topK
	qs := make([]engine.Query, len(o.srcs))
	for i, u := range o.srcs {
		qs[i] = engine.Query{Op: engine.OpTopLinks, Src: u, K: &k, Mode: engine.ModeExact}
	}
	return qs
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Streams of one seed. Each closed-loop connection and each open-loop
// actor draws from its own stream, so what one of them sends never
// depends on how fast another ran.
const (
	streamLeaderReads   = 0 // also closed-loop connection 0
	streamFollowerReads = 1 // also closed-loop connection 1
	streamWrites        = 2
	streamLayers        = 3 // the traced run's layer sweep
	streamPrewarm       = 4 // the updates mixed_rw applies before its schedule starts
)

func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

// opGen produces one stream's op sequence for a workload over n nodes.
type opGen struct {
	rng      *rand.Rand
	workload string
	stream   int
	n        int
}

func newOpGen(workload string, seed int64, stream, n int) *opGen {
	return &opGen{rng: streamRNG(seed, stream), workload: workload, stream: stream, n: n}
}

func (g *opGen) next() op {
	switch g.workload {
	case wlReadFlat:
		// exact : fp16 : sq8 = 2 : 1 : 1
		mode := [4]string{engine.ModeExact, engine.ModeExact, engine.ModeFP16, engine.ModeSQ8}[g.rng.Intn(4)]
		return op{kind: opTopLinks, mode: mode, node: g.rng.Intn(g.n)}
	case wlReadIVF:
		// 60 % ivffp16, 20 % ivfsq, 10 % top-attrs, 10 % link-score
		switch r := g.rng.Intn(10); {
		case r < 6:
			return op{kind: opTopLinks, mode: engine.ModeIVFFP16, node: g.rng.Intn(g.n)}
		case r < 8:
			return op{kind: opTopLinks, mode: engine.ModeIVFSQ, node: g.rng.Intn(g.n)}
		case r < 9:
			return op{kind: opTopAttrs, node: g.rng.Intn(g.n)}
		default:
			return op{kind: opLinkScore, node: g.rng.Intn(g.n), dst: g.rng.Intn(g.n)}
		}
	case wlBatch:
		seen := make(map[int]bool, batchSize)
		srcs := make([]int, 0, batchSize)
		for len(srcs) < batchSize && len(srcs) < g.n {
			if u := g.rng.Intn(g.n); !seen[u] {
				seen[u] = true
				srcs = append(srcs, u)
			}
		}
		return op{kind: opBatch, srcs: srcs}
	case wlMixedRW:
		if g.stream == streamLeaderReads || g.stream == streamFollowerReads {
			return op{kind: opTopLinks, mode: engine.ModeIVFFP16, node: g.rng.Intn(g.n)}
		}
		edges := make([]graph.Edge, edgesPer)
		for i := range edges {
			src := g.rng.Intn(g.n)
			dst := g.rng.Intn(g.n - 1)
			if dst >= src { // uniform over dst != src
				dst++
			}
			edges[i] = graph.Edge{Src: src, Dst: dst}
		}
		return op{kind: opUpdate, edges: edges}
	}
	panic("bench: unknown workload " + g.workload)
}

func (g *opGen) take(count int) []op {
	ops := make([]op, count)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// event is one open-loop request: what to send and when it is due,
// measured from the start of the run.
type event struct {
	due time.Duration
	op  op
}

// mixedPlan lays out mixed_rw's arrival schedule over total: reads at
// readRate/s alternating leader, follower, and writes at writeRate/s
// placed half a period off the read grid. The rates are constants of the
// benchmark, not of the system: a faster system shows lower latency, not
// more requests.
func mixedPlan(seed int64, n int, total time.Duration, readRate, writeRate float64) (leader, follower, writer []event) {
	readers := [2]*opGen{
		newOpGen(wlMixedRW, seed, streamLeaderReads, n),
		newOpGen(wlMixedRW, seed, streamFollowerReads, n),
	}
	period := time.Duration(float64(time.Second) / readRate)
	for i := 0; time.Duration(i)*period < total; i++ {
		ev := event{due: time.Duration(i) * period, op: readers[i%2].next()}
		if i%2 == 0 {
			leader = append(leader, ev)
		} else {
			follower = append(follower, ev)
		}
	}
	wgen := newOpGen(wlMixedRW, seed, streamWrites, n)
	wperiod := time.Duration(float64(time.Second) / writeRate)
	for due := wperiod / 2; due < total; due += wperiod {
		writer = append(writer, event{due: due, op: wgen.next()})
	}
	return leader, follower, writer
}

// encodeOps renders ops as the bytes the determinism guarantee is stated
// over: same seed, byte-identical requests.
func encodeOps(ops []op) []byte {
	var buf bytes.Buffer
	for _, o := range ops {
		method, target, body := o.request()
		fmt.Fprintf(&buf, "%s %s %s\n", method, target, body)
	}
	return buf.Bytes()
}

func encodeEvents(evs []event) []byte {
	var buf bytes.Buffer
	for _, ev := range evs {
		method, target, body := ev.op.request()
		fmt.Fprintf(&buf, "%d %s %s %s\n", ev.due, method, target, body)
	}
	return buf.Bytes()
}
