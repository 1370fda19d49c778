package index

import (
	"math"
	"slices"

	"pane/internal/core"
	"pane/internal/mat"
)

// Codec names how a table stores and scores candidate rows.
type Codec int

const (
	F64 Codec = iota // the float64 rows themselves; exact scores
	I8               // int8 codes + per-row scale/base; approximate scores, exact re-rank
	F16              // binary16 codes, bounded by the float64 cell's int8 codes; scores final, no re-rank
	NumCodecs
)

// codec is the whole of what a storage format contributes. The boundary
// is crossed once per contiguous row range, never once per row, so each
// implementation's scan loop stays monomorphic over its dot kernel.
type codec interface {
	// alloc returns room for the encoding of n rows of dimension dim, one
	// allocation per array; encodeRow writes row's encoding at position j
	// of c. A row's encoding depends on that row alone, so it can be
	// carried from one position, block or generation to another.
	alloc(n, dim int) Codes
	encodeRow(c Codes, j int, row []float64)
	// prepare readies pq to score rows against q.
	prepare(pq *query, q []float64)
	// scan offers the rows of b that s spans to top, and returns how many
	// of them its bound could not rule out and it re-scored (see
	// certifiedScan).
	scan(top *core.TopK, b *block, pq *query, s span) int
	// final reports whether scan's scores are the answer's scores; if not
	// the table re-ranks the survivors exactly.
	final() bool
	// rowBytes is what scanning one row of dimension dim reads of b's
	// encodings; rescoreBytes what re-scoring one reads more: its float64
	// row, or its halves.
	rowBytes(dim int) int
	rescoreBytes(dim int) int
}

var codecs = [NumCodecs]codec{F64: f64Codec{}, I8: i8Codec{}, F16: f16Codec{}}

// encodedAs is the codec whose encoding a cell of each codec holds. The
// float64 codec scans the int8 codec's encoding (see f64Codec), so a
// layout's float64 and int8 cells hold one encoding between them; a
// binary16 cell holds its halves and scans that same int8 encoding beside
// them (see f16Codec).
var encodedAs = [NumCodecs]Codec{F64: I8, I8: I8, F16: F16}

// Codes is one codec's encoding of a contiguous run of candidate rows.
// The int8 and float64 codecs fill I8 (row-major codes), Scale and Base
// (per row; see QuantizeRows), the binary16 codec F16 (row-major; see
// EncodeFP16Rows).
type Codes struct {
	I8          []int8
	Scale, Base []float32
	F16         []uint16
}

// rows returns the encoding of rows [lo, hi) as a view of c, which holds
// rows of dimension dim, with the view's capacity reaching on to row max.
func (c Codes) rows(lo, hi, max, dim int) Codes {
	var out Codes
	if c.Scale != nil {
		out.I8, out.Scale, out.Base = c.I8[lo*dim:hi*dim:max*dim], c.Scale[lo:hi:max], c.Base[lo:hi:max]
	}
	if c.F16 != nil {
		out.F16 = c.F16[lo*dim : hi*dim : max*dim]
	}
	return out
}

// reach is how many rows lie behind a page's first in one piece of memory
// — its own and, by their capacity, the following pages' up to the first
// one a refresh replaced. A scan reads on through them as one contiguous
// run, so a block nothing has patched is scanned exactly as one array.
func (c Codes) reach(dim int) int {
	switch {
	case c.Scale != nil:
		return cap(c.Scale)
	case dim > 0:
		return cap(c.F16) / dim
	}
	return math.MaxInt32
}

// copyRow copies the encoding at position i of src to position j of c.
func (c *Codes) copyRow(j int, src *Codes, i, dim int) {
	if c.Scale != nil {
		copy(c.I8[j*dim:(j+1)*dim], src.I8[i*dim:(i+1)*dim])
		c.Scale[j], c.Base[j] = src.Scale[i], src.Base[i]
	}
	if c.F16 != nil {
		copy(c.F16[j*dim:(j+1)*dim], src.F16[i*dim:(i+1)*dim])
	}
}

// bytes is the size of the encoding.
func (c Codes) bytes() int64 {
	return int64(len(c.I8) + 4*len(c.Scale) + 4*len(c.Base) + 2*len(c.F16))
}

// pageCodes cuts c, the encoding of n rows, into mat.PageRows-row pages
// that alias it: a freshly encoded block stays one allocation per array,
// and every page reaches to its end.
func pageCodes(c Codes, n, dim int) []Codes {
	pages := make([]Codes, (n+mat.PageRows-1)/mat.PageRows)
	for k := range pages {
		pages[k] = c.rows(k*mat.PageRows, min((k+1)*mat.PageRows, n), n, dim)
	}
	return pages
}

// block is one layout block as a table holds it: the float64 rows (the
// caller's matrix under the flat layout, one inverted list's gathered
// copy otherwise — shared with the layout, never copied per codec) and
// the table's codec's encoding of them, on pages with the same
// boundaries: codes[k] encodes page k of rows. A binary16 block also
// holds keys, the int8 pages its scan bounds scores with: the pages of
// the float64 cell's block at the same position, shared, not copied, so
// the page helpers below never see them and a refresh leaves them to
// their owner. open counts its rows whose halves may overflow (see
// overflows); while there is one, its scan certifies nothing.
type block struct {
	rows  *mat.Paged
	codes []Codes
	keys  []Codes
	open  int
}

// i8Run returns the int8 encoding of rows [j, j+n) from pages as one
// stretch of memory, for the largest n <= hi-j they reach.
func i8Run(pages []Codes, j, hi, dim int) (codes []int8, scale, base []float32, n int) {
	pg, r := &pages[j/mat.PageRows], j%mat.PageRows
	n = min(pg.reach(dim)-r, hi-j)
	return pg.I8[r*dim : (r+n)*dim], pg.Scale[r : r+n], pg.Base[r : r+n], n
}

// encodeBlock returns the paged encoding of a block's rows, candidates ids
// (nil: row j is candidate j). A row that is not dirty and that prev — the
// previous generation's block, candidates prevIDs — also holds keeps its
// encoding; all three id lists ascend, so one merge walk finds them.
func encodeBlock(enc codec, rows *mat.Paged, ids []int32, prev []Codes, prevIDs []int32, dirty []int, w *Work) []Codes {
	c := enc.alloc(rows.Rows, rows.Cols)
	i, d := 0, 0
	for j := range rows.Rows {
		id := j
		if ids != nil {
			id = int(ids[j])
		}
		for d < len(dirty) && dirty[d] < id {
			d++
		}
		for i < len(prevIDs) && int(prevIDs[i]) < id {
			i++
		}
		if i < len(prevIDs) && int(prevIDs[i]) == id && (d == len(dirty) || dirty[d] != id) {
			c.copyRow(j, &prev[i/mat.PageRows], i%mat.PageRows, rows.Cols)
			continue
		}
		enc.encodeRow(c, j, rows.Row(j))
		w.RowsEncoded++
	}
	w.BytesCopied += c.bytes()
	return pageCodes(c, rows.Rows, rows.Cols)
}

// patchBlock returns prev, the paged encoding of a flat block, with the
// dirty rows re-encoded from rows: the page slice and the pages holding a
// dirty row are copied, every other page is shared. A copied page is
// memory of its own, so the pages before it stop reaching across it.
func patchBlock(enc codec, rows *mat.Paged, prev []Codes, dirty []int, w *Work) []Codes {
	out := slices.Clone(prev)
	w.BytesCopied += int64(96 * len(out)) // four slice headers a page
	for _, r := range dirty {
		k := r / mat.PageRows
		if pg := &out[k]; pg.shares(prev[k]) {
			n := min(mat.PageRows, rows.Rows-k*mat.PageRows)
			*pg = Codes{I8: slices.Clone(pg.I8), Scale: slices.Clone(pg.Scale), Base: slices.Clone(pg.Base), F16: slices.Clone(pg.F16)}.rows(0, n, n, rows.Cols)
			w.BytesCopied += pg.bytes()
			for p := k - 1; p >= 0 && out[p].reach(rows.Cols) > (k-p)*mat.PageRows; p-- {
				out[p] = out[p].rows(0, mat.PageRows, (k-p)*mat.PageRows, rows.Cols)
			}
		}
		enc.encodeRow(out[k], r%mat.PageRows, rows.Row(r))
		w.RowsEncoded++
	}
	return out
}

// shares reports whether two pages of one codec are the same memory.
func (c Codes) shares(d Codes) bool {
	if c.Scale != nil {
		return &c.Scale[0] == &d.Scale[0]
	}
	return len(c.F16) == 0 || &c.F16[0] == &d.F16[0]
}

// query is a search's query as a codec scores against it. Pooled with the
// search's scratch, so the 16-bit buffer adds no steady-state allocation.
type query struct {
	q   []float64
	i16 []int16 // q quantized symmetrically (quantizeQuery), for the int8 row kernel
	factors
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

// runRows is how many rows an int8 scan scores per dotI8Rows call, into a
// buffer on its stack, before it filters them. The kernel writes what the
// scan tests — a certified codec's bound, the int8 codec's approximate
// score — so the scan's own per-row work is one comparison. Each scan
// holds top's Floor in a local, reloaded after each keep: a row scoring
// below it is one top would not admit, and skipping it there takes the
// Admits call off almost every row. A score equal to the floor still goes
// to Admits, which breaks the tie by id; a NaN fails the test and goes on
// too, and so does every other non-finite bound, since none is −Inf (see
// f64Codec).
const runRows = 128

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

// f64Codec answers with the exact scores mat.Dot gives the float64 rows,
// but reads a row only where it must. It holds the int8 codec's encoding
// of its block, and the row kernel turns every row's codes into an upper
// bound ub on the score mat.Dot would return. The float64 row is read and
// scored only when top.Admits(id, ub), against a threshold that is the
// running k-th best EXACT score. A row whose bound top rejects has a
// score top rejects too, so the scan offers exactly the rows a full
// float64 scan offers, in the same order: the answer is the full scan's,
// ids and score bits alike. This is the VA-file design (Weber, Schek and
// Blott, VLDB 1998) with the top-k heap as the refinement filter.
//
// The bound uses the stored (scale s, base b) alone. For a row x of finite
// values, dimension n and codes c, quantizeRowInto guarantees per element
//
//	|x_j − (b + s·c_j)| ≤ e = s/2·(1+2⁻²⁰) + w·2⁻²² + 2⁻¹¹⁷,   w = |b| + 130·s
//
// What it needs is less: s/2·(1+2⁻⁴²) for the distance to the nearest
// level computed in float64 (the clamp at level 255 that a rounded-down s
// can force costs under 2⁻¹⁶·s), 2⁻²⁴·|b|·(1+2⁻²⁸) for rounding b to
// float32, and 2⁻¹⁴¹ for a row whose range/255 underflows float32 (s zero
// or subnormal). So e holds a spare of at least 2⁻²³·w + 2⁻¹¹⁸ per
// element, and |x_j| ≤ w·(1+2⁻²²) + 2⁻¹¹⁷. prepare writes the query as
// q = step·qi + φ with step = max|q_j|/L, |qi_j| ≤ L = queryLevels(n) and
// |φ_j| ≤ f, and |c_j| ≤ 128, so the codes' dot d = qi·c is exact
// (|d| ≤ 128·L·n < 2³¹) and
//
//	q·x = b·Σq + s·step·d + s·(φ·c) + q·(x − b − s·c)
//	    ≤ a + s·f·128·n + e·‖q‖₁,   a = b·qsum + s·step·d,
//
// where a is the score the int8 codec's scan computes. Nothing else is
// added for the float64 rounding of qsum, of ‖q‖₁ and f, of a, of the
// bound's own terms, and of mat.Dot: e's spare covers them. For n ≤ 2¹²,
// L ≥ 4095, so f ≤ step·(1/2 + 2⁻⁴⁰) gives n·f ≤ 0.52·max|q_j| and
// step·|d| ≤ 128·(‖q‖₁ + n·f) ≤ 195·‖q‖₁, hence |a| ≤ 1.5·‖q‖₁·w, and
// every term of ub is a few ‖q‖₁·w. mat.Dot's sixteen lanes put each
// product through at most n/16 + 10 roundings, under 2⁻⁴⁴·Σ|q_j·x_j| in
// all, with Σ|q_j·x_j| ≤ ‖q‖₁·max|x_j|. The largest piece is f itself,
// computed as |q_j − step·qi_j| in float64: it may fall short of the
// true φ by 2⁻⁵²·max|q_j|, which costs s·128·n of that, 2⁻³³·s·‖q‖₁.
// Together they stay under 2⁻³¹·‖q‖₁·w + 2⁻¹⁵⁸·‖q‖₁, 2⁸ times inside the
// spare's ‖q‖₁·(2⁻²³·w + 2⁻¹¹⁸). This assumes the products stay clear of
// float64's subnormal range. A query longer than 2¹², or with ‖q‖₁ of
// 2⁸⁰⁰ or more (or not finite), gets f·128·n = +Inf and certifies
// nothing; under 2⁸⁰⁰ no term of a finite (s, b)'s bound can overflow, so
// no bound is −Inf. A non-finite ub — from a row holding Inf or NaN, or an
// (s, b) that overflowed float32 — certifies nothing, and the row is
// scored.
type f64Codec struct{}

// maxBoundDim is the longest query the bound covers.
const maxBoundDim = 1 << 12

func (f64Codec) alloc(n, dim int) Codes                  { return i8Codec{}.alloc(n, dim) }
func (f64Codec) encodeRow(c Codes, j int, row []float64) { i8Codec{}.encodeRow(c, j, row) }
func (f64Codec) final() bool                             { return true }
func (f64Codec) rowBytes(dim int) int                    { return i8Codec{}.rowBytes(dim) }
func (f64Codec) rescoreBytes(dim int) int                { return 8 * dim }
func (f64Codec) prepare(pq *query, q []float64)          { pq.prepareBound(q, false) }

func (f64Codec) scan(top *core.TopK, b *block, pq *query, s span) int {
	return certifiedScan(top, b, b.codes, pq, s, scoreF64)
}

// scoreF64 is the float64 codec's re-score of block row j: mat.Dot.
func scoreF64(q []float64, b *block, j int) float64 { return mat.Dot(q, b.rows.Row(j)) }

// prepareBound quantizes q as the int8 codec does and gathers the bound's
// per-query factors: expanding e,
//
//	ub = a + s·ks + |b|·kb + k0,
//	ks = ‖q‖₁·(1/2 + 2⁻²¹ + 130·2⁻²²) + f·128·n,
//	kb = ‖q‖₁·2⁻²²,   k0 = ‖q‖₁·2⁻¹¹⁷,
//
// which leaves a row three products and three adds beyond a, all of them
// in the row kernel. half widens the bound by
// ‖q‖₁·(2⁻¹¹·(1+2⁻¹⁰)·w + 2⁻²⁵) to cover the binary16 rounding of the row
// (see f16Codec): 130 times the w factor joins ks, once kb. Each product
// is rounded on its own, as in factors.bound, so every build derives the
// same factors.
func (pq *query) prepareBound(q []float64, half bool) {
	i8Codec{}.prepare(pq, q)
	var l1, f float64
	for j, v := range q {
		l1 += math.Abs(v)
		f = max(f, math.Abs(v-float64(pq.step*float64(pq.i16[j]))))
	}
	fn := float64(f * 128 * float64(len(q)))
	if len(q) > maxBoundDim || !(l1 < 0x1p800) {
		fn = math.Inf(1)
	}
	pq.ks = float64(l1*(0.5+0x1p-21+130*0x1p-22)) + fn
	pq.kb = float64(l1 * 0x1p-22)
	pq.k0 = float64(l1 * 0x1p-117)
	if half {
		kw := float64(l1 * 0x1p-11 * (1 + 0x1p-10))
		pq.ks += float64(130 * kw)
		pq.kb += kw
		pq.k0 += float64(l1 * 0x1p-25)
	}
}

// overflows reports whether, for a row with parameters (scale, base),
// w = |b| + 130·s reaches maxHalf or is NaN: then a value of the row may
// round to a ±Inf half, and the binary16 bound does not hold.
func overflows(scale, base float32) bool {
	return !(math.Abs(float64(base))+float64(130*float64(scale)) < maxHalf)
}

// overflowing counts the rows of a block with int8 pages keys that
// overflows flags: the listed rows, or all n when rows is nil.
func overflowing(keys []Codes, rows []int, n int) (c int) {
	at := func(r int) {
		if pg, x := &keys[r/mat.PageRows], r%mat.PageRows; overflows(pg.Scale[x], pg.Base[x]) {
			c++
		}
	}
	if rows == nil {
		for r := range n {
			at(r)
		}
	}
	for _, r := range rows {
		at(r)
	}
	return c
}

// certifiedScan is the scan of the codecs whose final scores the int8
// encoding bounds: the float64 and binary16 codecs, which differ only in
// score, the kernel that re-scores block row j from its full encoding, and
// in the bound's widening (see prepareBound). keys are b's int8 pages.
// Each run of rows is scored with the int8 kernel, and a row is re-scored
// only when top.Admits(id, ub) — or ub is not finite, or NaN — against
// the running k-th best final score. A row whose bound top rejects has a
// score top rejects too, so the scan offers exactly the rows a full scan
// with score offers, in the same order. A binary16 block whose halves may
// overflow is re-scored whole, as a full scan scores it. It returns how
// many rows it re-scored.
func certifiedScan(top *core.TopK, b *block, keys []Codes, pq *query, s span, score func(q []float64, b *block, j int) float64) (scored int) {
	if b.open > 0 {
		for j := s.lo; j < s.hi; j++ {
			if id, sc := s.id(j), score(pq.q, b, j); top.Admits(id, sc) {
				keep(top, s.skip, id, sc)
			}
		}
		return s.hi - s.lo
	}
	dim := len(pq.q)
	var ubs [runRows]float64
	floor := top.Floor()
	for j := s.lo; j < s.hi; {
		codes, scale, base, n := i8Run(keys, j, min(s.hi, j+runRows), dim)
		dotI8Rows(pq, codes, scale, base, ubs[:n], true)
		for x, ub := range ubs[:n] {
			if ub < floor {
				continue
			}
			if id := s.id(j + x); ub-ub != 0 || top.Admits(id, ub) { // ub-ub != 0: Inf or NaN
				scored++
				if sc := score(pq.q, b, j+x); top.Admits(id, sc) {
					keep(top, s.skip, id, sc)
					floor = top.Floor()
				}
			}
		}
		j += n
	}
	return scored
}
