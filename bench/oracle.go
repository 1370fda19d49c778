package main

import (
	"encoding/json"
	"fmt"
	"math"

	"pane/internal/core"
	"pane/internal/engine"
)

// verdict accumulates the oracle's findings over the sampled responses.
type verdict struct {
	checked    int // responses compared against brute force
	mismatches int // exact answers that differed, or bodies that did not parse
	skipped    int // mixed_rw: the model had moved on before the check
	ties       int // exact answers that order two candidates of equal score the other way round
	recallHits int // approximate answers: ids shared with the oracle's top-k
	recallOf   int // approximate answers: oracle ids offered
	firstError string
}

func (v *verdict) fail(format string, args ...interface{}) {
	v.mismatches++
	if v.firstError == "" {
		v.firstError = fmt.Sprintf(format, args...)
	}
}

// recall is the mean top-k overlap of the approximate answers checked.
// batch sends only exact queries, so the metric does not apply there; the
// driver wants every metric from every workload, and an exact answer that
// differs from brute force is a failure, so it reads 1.
func (v *verdict) recall() float64 {
	if v.recallOf == 0 {
		return 1
	}
	return float64(v.recallHits) / float64(v.recallOf)
}

type topKBody struct {
	Results []core.Scored `json:"results"`
	Version uint64        `json:"version"`
	Backend string        `json:"backend"`
}

type linkScoreBody struct {
	Score      float64 `json:"score"`
	Undirected float64 `json:"undirected"`
	Version    uint64  `json:"version"`
}

type batchBody struct {
	Version uint64          `json:"version"`
	Results []engine.Result `json:"results"`
}

// responseVersion reads the model version a top-k response was computed
// against.
func responseVersion(body []byte) (uint64, error) {
	var b struct {
		Version uint64 `json:"version"`
	}
	err := json.Unmarshal(body, &b)
	return b.Version, err
}

// check compares one response with what brute force over m — the model
// at the response's version — says. Exact answers must match id for id,
// tie order included; approximate ones feed recall.
func (v *verdict) check(o op, body []byte, m *engine.Model) {
	v.checked++
	switch o.kind {
	case opTopLinks:
		var b topKBody
		if err := json.Unmarshal(body, &b); err != nil {
			v.fail("top-links body: %v", err)
			return
		}
		v.compare(o, b.Results, m.Scorer.TopKTargets(o.node, topK, nil))
	case opTopAttrs:
		var b topKBody
		if err := json.Unmarshal(body, &b); err != nil {
			v.fail("top-attrs body: %v", err)
			return
		}
		v.compare(o, b.Results, m.Emb.TopKAttrs(o.node, topK, nil))
	case opLinkScore:
		var b linkScoreBody
		if err := json.Unmarshal(body, &b); err != nil {
			v.fail("link-score body: %v", err)
			return
		}
		if want := m.Scorer.Directed(o.node, o.dst); b.Score != want {
			v.fail("link-score %d->%d: got %v want %v", o.node, o.dst, b.Score, want)
		} else if want := m.Scorer.Undirected(o.node, o.dst); b.Undirected != want {
			v.fail("link-score %d<->%d: got %v want %v", o.node, o.dst, b.Undirected, want)
		}
	case opBatch:
		var b batchBody
		if err := json.Unmarshal(body, &b); err != nil {
			v.fail("batch body: %v", err)
			return
		}
		if len(b.Results) != len(o.srcs) {
			v.fail("batch: %d results for %d queries", len(b.Results), len(o.srcs))
			return
		}
		for i, u := range o.srcs {
			if b.Results[i].Err != "" {
				v.fail("batch query %d: %s", i, b.Results[i].Err)
				continue
			}
			q := op{kind: opTopLinks, mode: engine.ModeExact, node: u}
			v.compare(q, b.Results[i].Top, m.Scorer.TopKTargets(u, topK, nil))
		}
	}
}

func (v *verdict) compare(o op, got, want []core.Scored) {
	if o.exact() {
		switch {
		case sameIDs(got, want):
		case sameScores(got, want):
			v.ties++
		default:
			v.fail("%v node %d (%s): got %v want %v", o.kind, o.node, o.mode, ids(got), ids(want))
		}
		return
	}
	in := make(map[int]bool, len(want))
	for _, s := range want {
		in[s.ID] = true
	}
	for _, s := range got {
		if in[s.ID] {
			v.recallHits++
		}
	}
	v.recallOf += len(want)
}

func sameIDs(a, b []core.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// sameScores reports whether two rankings agree rank by rank on the score
// to within float64 rounding. The index scores a candidate as x·(G·y) and
// the brute-force oracle as (x·G)·y; the two associations differ in the
// last bits, so two candidates whose scores tie to a relative 1e-12 can
// come out in either order — or either side of the k-th place — without
// either answer being wrong. (Seen twice in 20 batch runs.) A wrong
// candidate anywhere in the list moves some rank's score by far more.
func sameScores(a, b []core.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-9*math.Max(1, math.Abs(b[i].Score)) {
			return false
		}
	}
	return true
}

func ids(s []core.Scored) []int {
	out := make([]int, len(s))
	for i := range s {
		out[i] = s[i].ID
	}
	return out
}
