// Package index provides top-k maximum-inner-product retrieval over a
// fixed set of candidate vectors — the serving-path complement to the
// training code in internal/core. Both of the paper's serving queries are
// this one operation: link prediction over the precomputed transform
// Z = Xb·G (so a query is a single scan with no per-query O(k²) setup),
// attribute inference over Y.
//
// There is one index type, Table, and every backend is a cell of a
// layout × codec grid:
//
//	layout \ codec   float64           int8 + re-rank   binary16
//	flat             exact             sq8              fp16
//	inverted         ivf               ivfsq            ivffp16
//	bytes scanned    1/dim + 8/row,    1/dim + 8/row    2/dim
//	                 8/dim re-scored
//	answer           exact             exact re-rank    final
//	                                   of a cut
//
// The layout says which rows a query visits. Flat is one block scanned
// whole and is always correct. Inverted adds a k-means coarse quantizer
// (an inverted file over the same vectors) for approximate sub-linear
// search: only the lists whose centroids score best against the query are
// scanned, and the recall/latency trade-off is set per query by the
// number of probed lists.
//
// The codec says how a block stores and scores its rows. The scaling wall
// on large candidate sets is memory bandwidth, not compute, so every
// codec scans fewer bytes per row than the float64 rows hold. The float64
// codec scans a per-row scalar quantization (int8) of its rows, bounds
// each row's exact score from it, and reads a float64 row only when that
// bound reaches the running top-k: under one row in a hundred, with
// answers bit-identical to a full float64 scan. The int8 codec scans the
// same quantization under an approximate score and restores exact scores
// by re-ranking the rerank*k best survivors in float64 (fully exact when
// that window covers every candidate); binary16's scores are accurate
// enough to be final. A layout's float64 and int8 cells share one
// quantization, never two copies.
//
// Tables are immutable after construction and safe for concurrent
// searches. internal/engine builds one set per model version and swaps
// whole sets atomically, so a query never observes a half-built
// structure. For dynamic updates Table.Refresh produces the next
// immutable generation from the new candidate matrix and the set of rows
// that actually changed. Rows and codes live on mat.PageRows-row
// copy-on-write pages (a fresh block is still one allocation its pages
// alias, and a scan reads it as one array), so a generation copies O(Δ)
// and shares the rest with its predecessor. What is re-done per cell:
//
//	flat                the caller's WithRows matrix is adopted; the page
//	                    slice and the dirty rows' code pages are copied,
//	                    the dirty rows re-encoded
//	inverted, float64   the dirty rows move between lists against the
//	                    frozen quantizer; touched lists are re-gathered
//	                    and carry their survivors' codes over, the dirty
//	                    rows are encoded
//	inverted, binary16  touched lists carry their survivors' codes over;
//	                    the dirty rows are encoded
//	int8 behind float64 nothing: it adopts the float64 cell's blocks
//
// All rankings use core.Better ordering (score descending, ties by
// ascending id), which makes results bit-for-bit comparable across the
// grid: an inverted table probing every list returns exactly its flat
// sibling's answer, and int8 with a covering re-rank exactly float64's.
package index

import (
	"pane/internal/core"
)

// Backend kinds reported by Kind().
const (
	KindExact   = "exact"
	KindIVF     = "ivf"
	KindSQ8     = "sq8"
	KindIVFSQ   = "ivfsq"
	KindFP16    = "fp16"
	KindIVFFP16 = "ivffp16"
)

// Options tunes one Search call.
type Options struct {
	// NProbe is the number of inverted lists a search scans. Values <= 0
	// mean the index's build-time default; values above nlist are
	// clamped. The flat layout ignores it.
	NProbe int
	// Skip, when non-nil, excludes candidate ids from the result (e.g.
	// the query node itself in link prediction).
	Skip func(id int) bool
}

// Index is a top-k retrieval structure over Len() candidate vectors of
// dimension Dim(). Search returns the k candidates with the largest inner
// product against q in core.Better order (highest score first, ties by
// ascending id); k is clamped to the candidate count. For a flat table
// (and an inverted one probing every list) fewer than k results mean the
// candidate set after Skip was exhausted; a partial-probe search may
// return fewer simply because the probed lists held fewer candidates.
type Index interface {
	Search(q []float64, k int, opt Options) []core.Scored
	Len() int
	Dim() int
	Kind() string
}
