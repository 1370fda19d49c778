package index

import (
	"math"

	"pane/internal/core"
	"pane/internal/mat"
)

// Quantized candidate storage: an 8-bit scalar-quantized (SQ8) copy of
// the candidate matrix scanned with an int32-accumulating kernel, then an
// exact float64 re-rank of the best rerank*k survivors. The full scan is
// memory-bandwidth bound (each candidate costs one streamed row read and
// a handful of multiply-adds), so shrinking a row from 8 bytes per
// dimension to 1 is close to an 8x traffic cut; the re-rank touches only
// a constant number of float rows per query, which restores exact scores
// — and exact orderings whenever the true top-k survives the quantized
// cut. This file is the int8 codec: the encoding, the kernel dispatch and
// the scan; which rows a query visits is the layout's business. The
// float64 codec holds the same encoding and scans it to bound exact
// scores (f64Codec).
//
// Quantization is PER ROW: each candidate row stores its own (scale,
// base) pair and codes c ∈ [-128, 127] reconstructing x̂[j] = base +
// scale·c[j]. Per-row parameters cost 8 bytes/row but make the quantized
// representation of a row independent of every other row — which is what
// keeps sharded serving honest: a contiguous row shard quantizes to
// exactly the row slice of the whole matrix's quantization, so a sharded
// fan-out (see mergePartials) returns bit-for-bit the unsharded answer.
// A per-column scheme would tie every code to global column statistics
// and break that equality the moment shards rebuild independently.

// DefaultRerank is the survivor multiplier when the build config sets
// none: the exact re-rank considers the DefaultRerank*k best quantized
// scores. 4 is comfortably past the window
// 8-bit error needs at ≥ 0.99 recall@10 on embedding-shaped data while
// keeping the re-rank a constant, negligible cost.
const DefaultRerank = 4

// QuantizeRows computes the per-row SQ8 encoding of data: codes holds
// data.Rows*data.Cols int8 codes row-major, and row i reconstructs as
// x̂[j] = base[i] + scale[i]·codes[i*dim+j], with |x − x̂| ≤ scale[i]/2
// per element up to float32 rounding of the stored parameters (f64Codec
// states the bound with that rounding included). Constant
// rows get scale 0 and exact base. The encoding is deterministic in data
// alone — no seeds, no global statistics — so any row slice of data
// quantizes to the corresponding slice of (codes, scale, base).
func QuantizeRows(data *mat.Dense) (codes []int8, scale, base []float32) {
	c := i8Codec{}.alloc(data.Rows, data.Cols)
	for i := range data.Rows {
		i8Codec{}.encodeRow(c, i, data.Row(i))
	}
	return c.I8, c.Scale, c.Base
}

// quantizeRowInto encodes one candidate row into c (which must have
// length len(row)) and returns its (scale, base) pair — the per-row unit
// QuantizeRows and the incremental Refresh share, so a refreshed row's
// encoding is bit-identical to a full re-quantization's. c may hold stale
// codes from a previous version; every element is overwritten.
func quantizeRowInto(row []float64, c []int8) (scale, base float32) {
	if len(row) == 0 {
		return 0, 0
	}
	mn, mx := row[0], row[0]
	for _, v := range row[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	s := float32((mx - mn) / 255)
	if s == 0 {
		for j := range c {
			c[j] = 0 // x̂ = base for every element
		}
		return 0, float32(mn)
	}
	base = float32(mn + float64(128*float64(s)))
	inv := 1 / float64(s)
	for j, v := range row {
		q := math.Round((v - mn) * inv) // nearest of 256 levels
		if q < 0 {
			q = 0
		}
		if q > 255 {
			q = 255
		}
		c[j] = int8(int(q) - 128)
	}
	return s, base
}

// queryLevels is how many levels a query of dimension dim is quantized to
// on each side of zero: as many as 16 bits hold, and few enough that the
// kernel's int32 sums cannot overflow in any order, since every partial
// sum is at most levels·128·dim < 2³¹ in magnitude. That is 32,767 up to
// dim 512, then ⌊(2³¹−1)/(128·dim)⌋ (27,962 at dim 600); a query of
// dimension 2²⁴ or more would get none and is not supported.
func queryLevels(dim int) int {
	return min(32767, (1<<31-1)/(128*max(dim, 1)))
}

// quantizeQuery encodes q symmetrically into dst (step·dst[j] ≈ q[j],
// |dst[j]| ≤ queryLevels(len(q))) and returns the step together with
// Σ q[j], the two per-query constants of the quantized score
//
//	score(i) ≈ base[i]·qsum + scale[i]·step·Σ_j dst[j]·codes[i][j],
//
// whose inner sum is the int32 kernel below. The query is quantized to 16
// bits, not 8: the kernel widens both operands to 16 bits anyway, so the
// finer query costs it nothing, and the query's rounding — which the
// certified bound charges as f·128·dim (see f64Codec) — shrinks 258-fold
// at the serving width. A zero query gets step 0 and all-zero codes.
func quantizeQuery(q []float64, dst []int16) (step, qsum float64) {
	var mx float64
	for _, v := range q {
		qsum += v
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		clear(dst)
		return 0, qsum
	}
	levels := float64(queryLevels(len(q)))
	step = mx / levels
	inv := 1 / step
	for j, v := range q {
		c := math.Round(v * inv)
		if c > levels {
			c = levels
		}
		if c < -levels {
			c = -levels
		}
		dst[j] = int16(c)
	}
	return step, qsum
}

// factors are a prepared query's per-query constants, in the order the
// row kernel's assembly reads them: the approximate score's (see approx)
// and, for the certified codecs, the bound's (see prepareBound).
type factors struct {
	sum, step  float64
	ks, kb, k0 float64
}

// approx is the quantized score above of a row with parameters (scale,
// base) whose codes' int32 dot with the query's is d. Each product is
// rounded on its own (the explicit conversions forbid fusing it into an
// add), so every build computes the same bits, and so does the kernel.
func (f *factors) approx(d int32, scale, base float32) float64 {
	return float64(float64(base)*f.sum) + float64(float64(float64(scale)*f.step)*float64(d))
}

// bound is the certified upper bound of f64Codec on the score of a row
// with parameters (scale, base) whose codes' int32 dot with the query's is
// d; for the binary16 codec, of a row overflows does not flag. Summed left
// to right, each product rounded on its own, as the kernel sums it.
func (f *factors) bound(d int32, scale, base float32) float64 {
	return f.approx(d, scale, base) + float64(float64(scale)*f.ks) + float64(math.Abs(float64(base))*f.kb) + f.k0
}

// score is what a scan tests of such a row: its bound, or its approximate
// score.
func (f *factors) score(d int32, scale, base float32, bound bool) float64 {
	if bound {
		return f.bound(d, scale, base)
	}
	return f.approx(d, scale, base)
}

// dotI8 returns the int32 inner product of a query's 16-bit codes with a
// row's int8 codes: the portable kernel, 4-way unrolled like mat.Dot, and
// the reference every vector kernel is tested against. Integer sums are
// exact and queryLevels keeps them inside int32, so every path returns the
// same value in any order.
func dotI8(q []int16, c []int8) int32 {
	c = c[:len(q)]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(q); i += 4 {
		s0 += int32(q[i]) * int32(c[i])
		s1 += int32(q[i+1]) * int32(c[i+1])
		s2 += int32(q[i+2]) * int32(c[i+2])
		s3 += int32(q[i+3]) * int32(c[i+3])
	}
	var s int32
	for ; i < len(q); i++ {
		s += int32(q[i]) * int32(c[i])
	}
	return s0 + s1 + s2 + s3 + s
}

// dotI8Rows writes to out[r], for each row r of codes (dimension
// len(pq.i16); parameters scale[r], base[r]), what a scan tests of it:
// the bound when bound is set, else the approximate score. It is the
// kernel under every int8, float64 and binary16 scan, which scores a run
// of rows per call. With AVX2 it loads the query once for four rows, pays
// the call, the horizontal sums and the VZEROUPPER once per call, and
// turns four rows' sums into their scores per instruction; on arm64 a
// NEON dot per row feeds the Go arithmetic. Every path writes the bits
// score computes over dotI8's sum.
//
// The vector kernel is what makes the int8 encoding pay off even when the
// float64 matrix is cache-resident: a scalar multiply-add chain is no
// faster per element than the unrolled float64 one, so without it the
// 8x storage saving would only show once the scan spilled to memory.
func dotI8Rows(pq *query, codes []int8, scale, base []float32, out []float64, bound bool) {
	dim := len(pq.i16)
	if len(codes) != len(out)*dim || len(scale) != len(out) || len(base) != len(out) {
		panic("index: dotI8Rows length mismatch")
	}
	if dotI8RowsSIMD(pq, codes, scale, base, out, bound) {
		return
	}
	for r := range out {
		out[r] = pq.score(dotI8(pq.i16, codes[r*dim:(r+1)*dim]), scale[r], base[r], bound)
	}
}

// I8Query is a query as the exact scan prepares it for the int8 row
// kernel, exported with DotI8Rows for the kernel microbenchmark
// (`benchexp -exp kernel`).
type I8Query struct{ pq query }

// PrepareI8Query prepares q as the float64 codec does.
func PrepareI8Query(q []float64) *I8Query {
	var iq I8Query
	f64Codec{}.prepare(&iq.pq, q)
	return &iq
}

// DotI8Rows writes the certified bound of each row of an encoding
// (QuantizeRows) to out through the dispatched kernel, as the exact scan
// computes it.
func DotI8Rows(q *I8Query, codes []int8, scale, base []float32, out []float64) {
	dotI8Rows(&q.pq, codes, scale, base, out, true)
}

// DotI8RowsGeneric is DotI8Rows through the portable kernel.
func DotI8RowsGeneric(q *I8Query, codes []int8, scale, base []float32, out []float64) {
	dim := len(q.pq.i16)
	for r := range out {
		out[r] = q.pq.bound(dotI8(q.pq.i16, codes[r*dim:(r+1)*dim]), scale[r], base[r])
	}
}

// i8Codec is the quantized codec: int8 codes scanned with the row kernel
// under the approximate score above, then re-ranked exactly by the table.
type i8Codec struct{}

func (i8Codec) final() bool { return false }

// rowBytes counts the codes and the row's (scale, base) pair; a survivor
// is re-ranked from its float64 row.
func (i8Codec) rowBytes(dim int) int     { return dim + 8 }
func (i8Codec) rescoreBytes(dim int) int { return 8 * dim }

func (i8Codec) alloc(n, dim int) Codes {
	return Codes{I8: make([]int8, n*dim), Scale: make([]float32, n), Base: make([]float32, n)}
}

func (i8Codec) encodeRow(c Codes, j int, row []float64) {
	c.Scale[j], c.Base[j] = quantizeRowInto(row, c.I8[j*len(row):(j+1)*len(row)])
}

func (i8Codec) prepare(pq *query, q []float64) {
	pq.q = q
	if cap(pq.i16) < len(q) {
		pq.i16 = make([]int16, len(q))
	}
	pq.i16 = pq.i16[:len(q)]
	pq.step, pq.sum = quantizeQuery(q, pq.i16)
}

func (i8Codec) scan(top *core.TopK, b *block, pq *query, s span) int {
	dim := len(pq.q)
	var scores [runRows]float64
	floor := top.Floor()
	for j := s.lo; j < s.hi; {
		codes, scale, base, n := i8Run(b.codes, j, min(s.hi, j+runRows), dim)
		dotI8Rows(pq, codes, scale, base, scores[:n], false)
		for x, score := range scores[:n] {
			if score < floor {
				continue
			}
			if id := s.id(j + x); top.Admits(id, score) {
				keep(top, s.skip, id, score)
				floor = top.Floor()
			}
		}
		j += n
	}
	return 0
}
