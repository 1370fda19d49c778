package index

import (
	"sync"

	"pane/internal/core"
	"pane/internal/mat"
)

// Codec names how a table stores and scores candidate rows.
type Codec int

const (
	F64 Codec = iota // the float64 rows themselves; exact scores
	I8               // int8 codes + per-row scale/base; approximate scores, exact re-rank
	F16              // binary16 codes; scores final, no re-rank
	NumCodecs
)

// codec is the whole of what a storage format contributes. The boundary
// is crossed once per contiguous row range, never once per row, so each
// implementation's scan loop stays monomorphic over its dot kernel.
type codec interface {
	// encode returns the encoding of rows. With prev — the encoding an
	// earlier generation held for the same row positions — only the dirty
	// rows are re-encoded and the rest copied.
	encode(rows *mat.Dense, prev *Codes, dirty []int) Codes
	// prepare readies pq to score rows against q.
	prepare(pq *query, q []float64)
	// scan offers the rows of b that s spans to top.
	scan(top *core.TopK, b *block, pq *query, s span)
	// final reports whether scan's scores are the answer's scores; if not
	// the table re-ranks the survivors exactly.
	final() bool
}

var codecs = [NumCodecs]codec{F64: f64Codec{}, I8: i8Codec{}, F16: f16Codec{}}

// Codes is one codec's encoding of a contiguous run of candidate rows, in
// the shape a bundle persists. The int8 codec fills I8 (row-major codes),
// Scale and Base (per row; see QuantizeRows), the binary16 codec F16
// (row-major; see EncodeFP16Rows), and float64 nothing.
type Codes struct {
	I8          []int8
	Scale, Base []float32
	F16         []uint16
}

// block is one layout block as a table holds it: the float64 rows (the
// caller's matrix under the flat layout, one inverted list's contiguous
// copy otherwise — shared with the layout, never copied per codec) and
// the table's codec's encoding of them.
type block struct {
	rows *mat.Dense
	Codes
}

// query is a search's query as a codec scores against it. Pooled, so the
// int8 scratch adds no steady-state allocation.
type query struct {
	q         []float64
	i8        []int8 // int8 codec: q quantized symmetrically
	step, sum float64
}

var queryPool = sync.Pool{New: func() interface{} { return new(query) }}

// span is a contiguous row range [lo, hi) of one block together with what
// turns a row into an offer: ids maps block rows to local candidate ids
// (nil: row j is candidate j), base lifts those to global ids, and skip,
// when non-nil, excludes global ids.
type span struct {
	lo, hi int
	ids    []int32
	base   int
	skip   func(int) bool
}

// id returns the global id of block row j.
func (s *span) id(j int) int {
	if s.ids != nil {
		return s.base + int(s.ids[j])
	}
	return s.base + j
}

// f64Codec scores the float64 rows directly with mat.Dot.
type f64Codec struct{}

func (f64Codec) encode(*mat.Dense, *Codes, []int) Codes { return Codes{} }
func (f64Codec) prepare(pq *query, q []float64)         { pq.q = q }
func (f64Codec) final() bool                            { return true }

func (f64Codec) scan(top *core.TopK, b *block, pq *query, s span) {
	for j := s.lo; j < s.hi; j++ {
		id := s.id(j)
		if s.skip != nil && s.skip(id) {
			continue
		}
		top.Offer(id, mat.Dot(pq.q, b.rows.Row(j)))
	}
}
