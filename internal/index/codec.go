package index

import (
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
	// rowBytes is what scanning one row of dimension dim reads of b.
	rowBytes(dim int) int
}

// quadCodec is a codec whose dot kernel has a four-query form: scan4 is
// scan for four queries at once, reading each row once for the four.
// Every score is bit for bit the one scan produces.
type quadCodec interface {
	scan4(tops [4]*core.TopK, b *block, pqs [4]*query, skips [4]func(int) bool, s span)
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

// query is a search's query as a codec scores against it. Pooled with the
// search's scratch, so the int8 buffer adds no steady-state allocation.
type query struct {
	q         []float64
	i8        []int8 // int8 codec: q quantized symmetrically
	step, sum float64
}

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

// keep offers a row that top.Admits to top, unless skip excludes it. Scan loops
// test the score first (inline) and call keep only for the few rows that
// pass: skip is a call through a closure and almost no row of a long scan
// beats the current k-th best, so asking the predicate only about rows
// that would be kept takes it off the per-row path. It is pure, so the
// order of the two tests cannot show in the answer.
func keep(top *core.TopK, skip func(int) bool, id int, score float64) {
	if skip == nil || !skip(id) {
		top.Offer(id, score)
	}
}

// f64Codec scores the float64 rows directly with mat.Dot.
type f64Codec struct{}

func (f64Codec) encode(*mat.Dense, *Codes, []int) Codes { return Codes{} }
func (f64Codec) prepare(pq *query, q []float64)         { pq.q = q }
func (f64Codec) final() bool                            { return true }
func (f64Codec) rowBytes(dim int) int                   { return 8 * dim }

func (f64Codec) scan(top *core.TopK, b *block, pq *query, s span) {
	for j := s.lo; j < s.hi; j++ {
		score := mat.Dot(pq.q, b.rows.Row(j))
		if id := s.id(j); top.Admits(id, score) {
			keep(top, s.skip, id, score)
		}
	}
}

func (f64Codec) scan4(tops [4]*core.TopK, b *block, pqs [4]*query, skips [4]func(int) bool, s span) {
	q0, q1, q2, q3 := pqs[0].q, pqs[1].q, pqs[2].q, pqs[3].q
	for j := s.lo; j < s.hi; j++ {
		var scores [4]float64
		scores[0], scores[1], scores[2], scores[3] = mat.Dot4(q0, q1, q2, q3, b.rows.Row(j))
		id := s.id(j)
		for i, top := range tops {
			if top.Admits(id, scores[i]) {
				keep(top, skips[i], id, scores[i])
			}
		}
	}
}
