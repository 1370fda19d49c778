package core

import (
	"math"
	"sync"

	"pane/internal/mat"
)

// Scored pairs an index (node or attribute id) with a prediction score.
type Scored struct {
	ID    int
	Score float64
}

// Better reports whether a ranks strictly ahead of b in top-k order:
// higher score first, equal scores broken by ascending ID. The explicit
// tie-break makes every top-k producer in the repository — the heap scans
// below, and the exact and IVF backends of internal/index — return
// bit-for-bit identical rankings on identical scores, regardless of
// candidate visit order or worker count.
func Better(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// TopK accumulates a stream of scored candidates and retains the k best
// under Better. Candidate ids must be unique within one accumulation.
// The zero value is unusable; call NewTopK.
//
// h is a hand-rolled min-heap (by Better-rank: the root is the weakest
// kept candidate, the next to evict) rather than a container/heap
// implementation: heap.Push/Pop pass elements through interface{}, which
// boxes every Scored on the heap — one allocation per offered candidate
// on the serving path. The open-coded sift loops below keep Offer and
// Take allocation-free.
type TopK struct {
	k int
	h []Scored
}

// worse reports whether h[i] ranks strictly behind h[j] — the heap order.
func (t *TopK) worse(i, j int) bool { return Better(t.h[j], t.h[i]) }

// up restores the heap property from leaf i toward the root.
func (t *TopK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(i, p) {
			break
		}
		t.h[i], t.h[p] = t.h[p], t.h[i]
		i = p
	}
}

// down restores the heap property from node i toward the leaves.
func (t *TopK) down(i int) {
	n := len(t.h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && t.worse(r, l) {
			m = r
		}
		if !t.worse(m, i) {
			break
		}
		t.h[i], t.h[m] = t.h[m], t.h[i]
		i = m
	}
}

// NewTopK returns an accumulator keeping the best k candidates. k < 1
// keeps none.
func NewTopK(k int) *TopK {
	if k < 0 {
		k = 0
	}
	prealloc := k
	if prealloc > 1024 {
		prealloc = 1024
	}
	return &TopK{k: k, h: make([]Scored, 0, prealloc)}
}

// Offer considers one candidate.
func (t *TopK) Offer(id int, score float64) {
	if t.k == 0 {
		return
	}
	s := Scored{ID: id, Score: score}
	if len(t.h) < t.k {
		t.h = append(t.h, s)
		t.up(len(t.h) - 1)
		return
	}
	if Better(s, t.h[0]) {
		t.h[0] = s
		t.down(0)
	}
}

// Admits reports whether Offer would retain the candidate. It is cheap
// enough to inline, so a scan can test a score against the current k-th
// best before paying for anything else about the candidate — its skip
// predicate, the Offer call — which almost every row of a long scan then
// never pays.
func (t *TopK) Admits(id int, score float64) bool {
	if len(t.h) < t.k {
		return true
	}
	return t.k > 0 && Better(Scored{ID: id, Score: score}, t.h[0])
}

// Floor returns the score below which Admits is false: −Inf until k
// candidates are kept, +Inf for k = 0, the weakest kept score after that.
// A scan can hold it in a local, test each score against it and reload it
// after each Offer; a score equal to it still needs Admits, which breaks
// the tie by id.
func (t *TopK) Floor() float64 {
	switch {
	case len(t.h) < t.k:
		return math.Inf(-1)
	case t.k == 0:
		return math.Inf(1)
	}
	return t.h[0].Score
}

// Len returns the number of candidates currently retained.
func (t *TopK) Len() int { return len(t.h) }

// Reset empties the accumulator and re-arms it for a fresh top-k
// accumulation, keeping the heap's backing array. It is what lets the
// serving paths recycle accumulators through the pool below instead of
// allocating one per query. k < 1 keeps none, matching NewTopK.
func (t *TopK) Reset(k int) {
	if k < 0 {
		k = 0
	}
	t.k = k
	t.h = t.h[:0]
}

// topkPool recycles TopK accumulators across queries. Per-request heap
// allocations are a measurable share of the top-k serving path's
// allocs/op (the scan itself allocates nothing), and the backing arrays
// are small and bounded, so pooling them is pure win.
var topkPool sync.Pool

// GetTopK returns a pooled accumulator re-armed for the best k, falling
// back to a fresh NewTopK when the pool is empty.
func GetTopK(k int) *TopK {
	if t, _ := topkPool.Get().(*TopK); t != nil {
		t.Reset(k)
		return t
	}
	return NewTopK(k)
}

// PutTopK returns an accumulator to the pool. Callers must be done with
// it — typically they have already drained it with Take, whose returned
// slice is freshly allocated and stays valid.
func PutTopK(t *TopK) { topkPool.Put(t) }

// Take drains the accumulator into descending rank order (highest score
// first, ascending ID on ties). The accumulator is empty afterwards.
func (t *TopK) Take() []Scored {
	out := make([]Scored, len(t.h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = t.h[0] // weakest remaining candidate
		last := len(t.h) - 1
		t.h[0] = t.h[last]
		t.h = t.h[:last]
		if last > 0 {
			t.down(0)
		}
	}
	return out
}

// TopKAttrs returns the k attributes with the highest inferred affinity
// to node v (Equation 21), optionally excluding a set of attribute ids
// (e.g. the ones already observed, for missing-attribute suggestion).
// Results are sorted by descending score, ties by ascending id.
func (e *Embedding) TopKAttrs(v, k int, exclude map[int]bool) []Scored {
	t := NewTopK(k)
	for r := 0; r < e.Y.Rows; r++ {
		if exclude != nil && exclude[r] {
			continue
		}
		t.Offer(r, e.AttrScore(v, r))
	}
	return t.Take()
}

// TopKTargets returns the k most plausible out-neighbors of node u under
// the link model (Equation 22), excluding u itself and any ids in
// exclude (e.g. existing out-neighbors, for recommendation). Results are
// sorted by descending score, ties by ascending id.
//
// Complexity: O(n·k²/4) per query via the precomputed Gram matrix —
// compute q = Xf[u]·G once (O(k²)), then score each candidate with one
// O(k/2) dot product. internal/index amortizes the per-query transform
// across queries by materializing the whole candidate matrix per model
// version.
func (s *LinkScorer) TopKTargets(u, k int, exclude map[int]bool) []Scored {
	half := s.e.Xf.Cols
	// q = Xf[u] · G, a length-(k/2) vector.
	q := make([]float64, half)
	xu := s.e.Xf.Row(u)
	for i := 0; i < half; i++ {
		if xu[i] == 0 {
			continue
		}
		gi := s.g.Row(i)
		for j := 0; j < half; j++ {
			q[j] += xu[i] * gi[j]
		}
	}
	t := NewTopK(k)
	n := s.e.Xb.Rows
	for v := 0; v < n; v++ {
		if v == u || (exclude != nil && exclude[v]) {
			continue
		}
		t.Offer(v, mat.Dot(q, s.e.Xb.Row(v)))
	}
	return t.Take()
}
