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
	base = float32(mn + 128*float64(s))
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

// dotI8 returns the int32 inner product of two equal-length int8 code
// vectors — the quantized kernel, which scans reach through dotI8Rows. On
// amd64 with AVX2 it dispatches to a vectorized implementation
// (sign-extend to int16 lanes, VPMADDWD pair-accumulate into int32 lanes —
// 16 multiply-adds per step); the portable path below is 4-way unrolled
// like mat.Dot. Integer accumulation is exact, so every path returns the
// identical value — quantized rankings do not depend on the host's
// instruction set. dim ≤ 2¹⁷ cannot overflow int32 (each term is bounded
// by 2¹⁴).
//
// The SIMD kernel is what makes SQ8 pay off even when the float matrix
// is cache-resident: a scalar int8 multiply-add chain is no faster per
// element than the unrolled float64 one, so without it the 8x storage
// saving only shows up once the exact scan spills to memory.
func dotI8(a, b []int8) int32 {
	if useDotI8SIMD && len(a) >= 16 {
		if len(a) != len(b) {
			panic("index: dotI8 length mismatch")
		}
		return dotI8SIMD(&a[0], &b[0], len(a))
	}
	return dotI8Generic(a, b)
}

// DotI8 exposes the dispatched quantized dot kernel for the kernel
// microbenchmark (`benchexp -exp kernel`); serving paths call dotI8
// through the int8 codec.
func DotI8(a, b []int8) int32 { return dotI8(a, b) }

// DotI8Generic exposes the portable kernel the same way.
func DotI8Generic(a, b []int8) int32 { return dotI8Generic(a, b) }

// dotI8Rows writes out[r] = dotI8(q, rows[r·dim:(r+1)·dim]) for every r,
// dim = len(q): the kernel under every int8 scan, which scores a run of
// rows per call. With AVX2 it loads the query once for four rows, and
// pays the call, the horizontal sums and the VZEROUPPER once per call, not
// once per row. Integer sums are exact, so every path writes the values
// dotI8 returns.
func dotI8Rows(q, rows []int8, out []int32) {
	dim := len(q)
	if len(rows) != len(out)*dim {
		panic("index: dotI8Rows length mismatch")
	}
	if useDotI8RowsSIMD && dim >= 16 && len(out) > 0 {
		dotI8RowsSIMD(&q[0], &rows[0], dim, len(out), &out[0])
		return
	}
	for r := range out {
		out[r] = dotI8(q, rows[r*dim:(r+1)*dim])
	}
}

// DotI8Rows exposes dotI8Rows for the kernel microbenchmark.
func DotI8Rows(q, rows []int8, out []int32) { dotI8Rows(q, rows, out) }

// dotI8Generic is the portable kernel, and the reference the SIMD path
// is tested against.
func dotI8Generic(a, b []int8) int32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	var s int32
	for ; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s0 + s1 + s2 + s3 + s
}

// quantizeQuery encodes q symmetrically into dst (int8, step·dst[j] ≈
// q[j]) and returns the step together with Σ q[j], the two per-query
// constants of the quantized score
//
//	score(i) ≈ base[i]·qsum + scale[i]·step·Σ_j dst[j]·codes[i][j],
//
// whose inner sum is the pure int32 kernel above. A zero query gets step
// 0 and all-zero codes.
func quantizeQuery(q []float64, dst []int8) (step, qsum float64) {
	var mx float64
	for _, v := range q {
		qsum += v
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return 0, qsum
	}
	step = mx / 127
	inv := 1 / step
	for j, v := range q {
		c := math.Round(v * inv)
		if c > 127 {
			c = 127
		}
		if c < -127 {
			c = -127
		}
		dst[j] = int8(c)
	}
	return step, qsum
}

// i8Codec is the quantized codec: int8 codes scanned with the int32 kernel
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
	if cap(pq.i8) < len(q) {
		pq.i8 = make([]int8, len(q))
	}
	pq.i8 = pq.i8[:len(q)]
	pq.step, pq.sum = quantizeQuery(q, pq.i8)
}

// approx is the quantized score above of a row with parameters (scale,
// base) whose codes' int32 dot with pq.i8 is d.
func (pq *query) approx(d int32, scale, base float32) float64 {
	return float64(base)*pq.sum + float64(scale)*pq.step*float64(d)
}

func (i8Codec) scan(top *core.TopK, b *block, pq *query, s span) int {
	dim := len(pq.i8)
	var ds [runRows]int32
	floor := top.Floor()
	for j := s.lo; j < s.hi; {
		codes, scale, base, n := i8Run(b.codes, j, min(s.hi, j+runRows), dim)
		dotI8Rows(pq.i8, codes, ds[:n])
		for x, d := range ds[:n] {
			score := pq.approx(d, scale[x], base[x])
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
