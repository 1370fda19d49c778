package index

import (
	"math"
	"math/bits"

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

// quantizeRowInto encodes one candidate row into c, the code of element x
// at c[x/2·pair + x%2] — pair 2 lays the codes out row-major, pair 16 in
// a group's chunks (see groupRows) — and returns its (scale, base) pair:
// the per-row unit every table encoding shares, so a refreshed row's
// encoding is bit-identical to a full re-quantization's. x̂[j] = base +
// scale·c[j] is within scale/2 of row[j] up to float32 rounding of the
// parameters (see f64Codec); a constant row gets scale 0 and exact base.
// c may hold stale codes from a previous version; every element's code is
// overwritten.
func quantizeRowInto(row []float64, c []int8, pair int) (scale, base float32) {
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
		for x := range row {
			c[x/2*pair+x%2] = 0 // x̂ = base for every element
		}
		return 0, float32(mn)
	}
	base = float32(mn + float64(128*float64(s)))
	inv := 1 / float64(s)
	for x, v := range row {
		q := math.Round((v - mn) * inv) // nearest of 256 levels
		if q < 0 {
			q = 0
		}
		if q > 255 {
			q = 255
		}
		c[x/2*pair+x%2] = int8(int(q) - 128)
	}
	return s, base
}

// groupRows is how many rows a table's int8 encoding interleaves: a
// group holds its rows' codes by dimension pair, each 16-byte chunk the
// two codes of each of its 8 rows (row r's at bytes 2r and 2r+1), so the
// row kernel widens a chunk once and multiplies it by one broadcast pair
// of each query's codes, and lane r ends as row r's dot with no
// horizontal fold. A code page holds runGroups groups; a block's last
// page ends on a whole group, its pad rows' codes, scale and base zero. An odd dimension is padded with a zero code, and the query with a
// zero level (see query.i16).
const groupRows = 8

// i8Width is the bytes of a group's chunks that hold one row's codes:
// dim rounded up to a whole pair.
func i8Width(dim int) int { return dim + dim&1 }

// padRows rounds a row count up to whole groups.
func padRows(n int) int { return (n + groupRows - 1) &^ (groupRows - 1) }

// i8At is where, in an int8 encoding, row j's code for element 0 lies;
// its code for element x lies x/2·16 + x%2 bytes on. Rows of dimension 0
// hold none.
func i8At(j, dim int) int {
	if dim == 0 {
		return 0
	}
	return j/groupRows*groupRows*i8Width(dim) + j%groupRows*2
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

// factors are a prepared query's per-query constants: the approximate
// score's (see approx) and, for the certified codecs, the bound's (see
// prepareBound).
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

// runGroups is how many groups one row kernel call scores at most, and a
// code page holds: runRows rows, one mask word per query.
const (
	runGroups = 8
	runRows   = runGroups * groupRows
)

// lanes is one call of the row kernel: the one to four queries it scores
// a run of groups against, the floor each is tested against, and what it
// returns. A unit's lanes live in the search's pooled scratch, not on the
// unit goroutine's stack, which a fresh goroutine would have to grow for
// them on every search. The assembly reads it by the offsets go_asm.h
// gives.
type lanes struct {
	q     [4][]int16          // each query's codes, whole pairs (query.i16)
	f     [4]factors          // each query's constants
	floor [4]float64          // each query's top-k floor when the call starts
	mask  [4]uint64           // bit r: !(score[x][r] < floor[x])
	score [4][runRows]float64 // row r's bound, or its approximate score
	dots  [4][runRows]int32   // row r's dot, where Go scores it (finish)
	ts    [4]taker            // the queries of the scan the calls serve
}

// load readies l for calls against the queries of ts.
func (l *lanes) load(ts []taker) {
	for x := range ts {
		l.q[x], l.f[x] = ts[x].pq.i16, ts[x].pq.factors
	}
}

// dotI8Rows is the row kernel under every int8, float64 and binary16
// scan. For each of the first nq queries of l and each row r of a run of
// whole groups of an int8 encoding (codes; parameters scale[r], base[r]),
// it writes to l.score[x][r] what a scan tests of the row — the bound
// when bound is set, else the approximate score: the bits factors.score
// computes over the row's int32 dot with the query's codes — and sets bit
// r of l.mask[x] when !(score < l.floor[x]). A scan visits only the mask's
// rows: a row scoring under the floor its query had when the call started
// scores under every later one. With AVX2 a chunk of codes is widened once
// for every query and each query's scores and mask are made eight rows an
// instruction; on arm64 NEON makes the dots and Go the rest (finish). The
// integer sums are exact and queryLevels keeps them inside int32, so
// every path writes the same bits.
//
// The vector kernel is what makes the int8 encoding pay off even when the
// float64 matrix is cache-resident: a scalar multiply-add chain is no
// faster per element than the unrolled float64 one, so without it the
// 8x storage saving would only show once the scan spilled to memory.
func dotI8Rows(l *lanes, nq int, codes []int8, scale, base []float32, bound bool) {
	w, ng := len(l.q[0]), len(scale)/groupRows
	if nq < 1 || nq > 4 || ng < 1 || ng > runGroups || w&1 != 0 ||
		len(scale) != ng*groupRows || len(base) != len(scale) || len(codes) != ng*groupRows*w {
		panic("index: dotI8Rows shape mismatch")
	}
	for x := range nq {
		if len(l.q[x]) != w {
			panic("index: dotI8Rows query length mismatch")
		}
	}
	if !dotI8RowsSIMD(l, nq, codes, scale, base, bound) {
		l.dotsGeneric(nq, codes, ng)
		l.finish(nq, scale, base, bound)
	}
}

// dotsGeneric is the portable kernel's integer half: it leaves each row's
// dot with each query's codes in l.dots.
func (l *lanes) dotsGeneric(nq int, codes []int8, ng int) {
	w := len(l.q[0])
	for x := range nq {
		q := l.q[x]
		for g := range ng {
			grp := codes[g*groupRows*w:][:groupRows*w]
			var d [groupRows]int32
			for p := 0; p < w; p += 2 {
				c, q0, q1 := grp[p*groupRows:][:2*groupRows], int32(q[p]), int32(q[p+1])
				for r := range d {
					d[r] += int32(c[2*r])*q0 + int32(c[2*r+1])*q1
				}
			}
			copy(l.dots[x][g*groupRows:], d[:])
		}
	}
}

// finish turns l.dots into scores and masks, as dotI8Rows states.
func (l *lanes) finish(nq int, scale, base []float32, bound bool) {
	for x := range nq {
		f, floor, dots, out := &l.f[x], l.floor[x], &l.dots[x], &l.score[x]
		var m uint64
		for r := range scale {
			s := f.score(dots[r], scale[r], base[r], bound)
			out[r] = s
			if !(s < floor) {
				m |= 1 << r
			}
		}
		l.mask[x] = m
	}
}

// I8Scan is one row kernel call as the exact scan makes it — one to four
// queries against a run of up to 64 encoded rows, scoring their certified
// bounds — exported for the kernel microbenchmark (`benchexp -exp
// kernel`).
type I8Scan struct {
	l     lanes
	nq, n int
	c     Codes
}

// PrepareI8Scan encodes rows (at most 64) as a table holds them and
// prepares each of qs (one to four) as the float64 codec does.
func PrepareI8Scan(rows *mat.Dense, qs ...[]float64) *I8Scan {
	if rows.Rows < 1 || rows.Rows > runRows || len(qs) < 1 || len(qs) > 4 {
		panic("index: PrepareI8Scan shape")
	}
	s := &I8Scan{nq: len(qs), n: rows.Rows, c: i8Codec{}.alloc(rows.Rows, rows.Cols)}
	for j := range rows.Rows {
		i8Codec{}.encodeRow(s.c, j, rows.Row(j))
	}
	for x, q := range qs {
		var pq query
		f64Codec{}.prepare(&pq, q)
		s.l.q[x], s.l.f[x], s.l.floor[x] = pq.i16, pq.factors, math.Inf(-1)
	}
	return s
}

// Run scores the rows through the dispatched kernel.
func (s *I8Scan) Run() { dotI8Rows(&s.l, s.nq, s.c.I8, s.c.Scale, s.c.Base, true) }

// RunGeneric scores the rows through the portable kernel.
func (s *I8Scan) RunGeneric() {
	s.l.dotsGeneric(s.nq, s.c.I8, len(s.c.Scale)/groupRows)
	s.l.finish(s.nq, s.c.Scale, s.c.Base, true)
}

// Queries returns how many queries s scores.
func (s *I8Scan) Queries() int { return s.nq }

// Bounds returns query x's bound on each row, as the last run left them.
func (s *I8Scan) Bounds(x int) []float64 { return s.l.score[x][:s.n] }

// i8Codec is the quantized codec: int8 codes scanned with the row kernel
// under the approximate score above, then re-ranked exactly by the table.
type i8Codec struct{}

func (i8Codec) final() bool { return false }

// rowBytes counts the codes and the row's (scale, base) pair; a survivor
// is re-ranked from its float64 row.
func (i8Codec) rowBytes(dim int) int     { return dim + 8 }
func (i8Codec) rescoreBytes(dim int) int { return 8 * dim }

// alloc rounds n up to whole groups: the kernel reads a group whole.
func (i8Codec) alloc(n, dim int) Codes {
	n = padRows(n)
	return Codes{I8: make([]int8, n*i8Width(dim)), Scale: make([]float32, n), Base: make([]float32, n)}
}

func (i8Codec) encodeRow(c Codes, j int, row []float64) {
	c.Scale[j], c.Base[j] = quantizeRowInto(row, c.I8[i8At(j, len(row)):], 2*groupRows)
}

// prepare leaves pq.i16 whole pairs long, an odd dimension's last level 0.
func (i8Codec) prepare(pq *query, q []float64) {
	pq.q = q
	w := i8Width(len(q))
	if cap(pq.i16) < w {
		pq.i16 = make([]int16, w)
	}
	pq.i16 = pq.i16[:w]
	if w > len(q) {
		pq.i16[len(q)] = 0
	}
	pq.step, pq.sum = quantizeQuery(q, pq.i16[:len(q)])
}

func (i8Codec) scan(b *block, s span, ts []taker, l *lanes) int {
	l.load(ts)
	for j := s.lo &^ (groupRows - 1); j < s.hi; {
		n := l.run(b.codes, &s, j, ts, false)
		for x := range ts {
			t, floor := &ts[x], l.floor[x]
			for m := l.mask[x]; m != 0; m &= m - 1 {
				r := bits.TrailingZeros64(m)
				score := l.score[x][r]
				if score < floor {
					continue
				}
				if id := s.id(j + r); t.top.Admits(id, score) {
					keep(t.top, t.skip, id, score)
					floor = t.top.Floor()
				}
			}
		}
		j += n
	}
	return 0
}
