package index

import (
	"math"
	"math/bits"

	"pane/internal/mat"
)

// Half-precision candidate storage: an IEEE 754 binary16 copy of the
// candidate matrix scored with a decode-and-accumulate float64 kernel.
// It is the storage point between SQ8 and float64 — 2 bytes per
// dimension — but unlike SQ8 it needs NO exact re-rank: a half holds ~3.3
// decimal digits, and at the dynamic ranges embedding coordinates live
// in, the score perturbation almost never reorders a top-k (the committed
// bench holds recall@10 at ≈ 0.999 with re-rank = none, gated on the
// missed-slot count with a binomial sampling allowance — the residual
// misses are rank-boundary ties below the 2^-11 half resolution). The
// scan does not decode every row: like the float64 codec it scans the
// int8 codes its layout's float64 cell holds, under a bound widened by
// the binary16 rounding, and decodes only the rows that bound cannot rule
// out (about 0.6 % of them at k = 10 over a 30,000-node embedding). This
// file is the binary16 codec: the conversions, the encoding, the kernel
// dispatch, and the widened bound.
//
// Encoding is PER ELEMENT (round-to-nearest-even, no shared statistics),
// so any row slice of a matrix encodes to exactly the row slice of the
// whole matrix's encoding — the property that keeps sharded serving
// bit-for-bit equal to unsharded, and lets the engine's copy-on-write
// refresh re-encode only dirty rows. Decoding a half is EXACT in
// float64, and the kernel accumulates in the one canonical order fixed by
// DotFP16Generic, so fp16 scores (and therefore rankings) are
// bit-identical across instruction sets and build tags. Unlike the int8
// codec's, fp16 scores are final: a sharded fan-out merges them like the
// float64 codec's, no global survivor cut required.

// F64ToFP16 converts x to IEEE 754 binary16 with round-to-nearest-even,
// directly from the float64 bits (no intermediate float32, so no double
// rounding). Overflow goes to ±Inf, underflow denormalizes down to ±0,
// and NaN becomes the canonical quiet NaN.
func F64ToFP16(x float64) uint16 {
	b := math.Float64bits(x)
	sign := uint16((b >> 48) & 0x8000)
	exp := int((b >> 52) & 0x7ff)
	frac := b & (1<<52 - 1)
	if exp == 0x7ff { // Inf or NaN
		if frac != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	}
	e := exp - 1023
	if e >= 16 { // beyond half range even before rounding
		return sign | 0x7c00
	}
	if e >= -14 {
		// Normal half range: keep the top 10 fraction bits, RNE on the
		// remaining 42. A mantissa carry ripples into the exponent (and,
		// at the very top, into Inf) by plain integer addition.
		m := frac >> 42
		rem := frac & (1<<42 - 1)
		const half = uint64(1) << 41
		if rem > half || (rem == half && m&1 == 1) {
			m++
		}
		return sign | uint16(uint64(e+15)<<10+m)
	}
	// Subnormal half (or zero): the result is round(|x| / 2^-24) units of
	// the half denormal step. The 53-bit significand represents
	// |x| = sig·2^(e-52), so the unit count is sig >> (28-e), RNE on the
	// shifted-out bits. A round-up from the largest subnormal carries
	// into the smallest normal by the same integer addition.
	sig := frac | 1<<52
	shift := uint(28 - e)
	if shift >= 64 {
		return sign
	}
	m := sig >> shift
	rem := sig & (1<<shift - 1)
	half := uint64(1) << (shift - 1)
	if rem > half || (rem == half && m&1 == 1) {
		m++
	}
	return sign | uint16(m)
}

// FP16ToF64 converts an IEEE 754 binary16 value to float64. Every half
// (normal and subnormal) is exactly representable, so the conversion is
// exact — which is what makes the SIMD decode (half → float32 → float64,
// both steps exact) bit-identical to this one.
func FP16ToF64(h uint16) float64 {
	sign := uint64(h>>15) << 63
	exp := uint64(h >> 10 & 0x1f)
	m := uint64(h & 0x3ff)
	switch {
	case exp == 0x1f: // Inf or NaN
		if m != 0 {
			return math.Float64frombits(sign | 0x7ff8000000000000 | m<<42)
		}
		return math.Float64frombits(sign | 0x7ff0000000000000)
	case exp == 0: // zero or subnormal: value is m · 2^-24
		if m == 0 {
			return math.Float64frombits(sign)
		}
		l := bits.Len64(m) // top set bit, 1..10
		e := l - 25        // value = 1.f · 2^(l-25)
		frac := (m << uint(53-l)) & (1<<52 - 1)
		return math.Float64frombits(sign | uint64(e+1023)<<52 | frac)
	default:
		return math.Float64frombits(sign | (exp-15+1023)<<52 | m<<42)
	}
}

// EncodeFP16Rows encodes data row-major into binary16: codes[i*dim+j] is
// the half encoding of data.Row(i)[j]. Per-element and deterministic, so
// any row slice of data encodes to the corresponding slice of codes.
func EncodeFP16Rows(data *mat.Dense) []uint16 {
	c := f16Codec{}.alloc(data.Rows, data.Cols)
	for i := range data.Rows {
		f16Codec{}.encodeRow(c, i, data.Row(i))
	}
	return c.F16
}

// dotFP16 returns the inner product of the float64 query q with the
// half-encoded candidate row c — the fp16 scan kernel. On amd64 with
// AVX2+F16C it dispatches to a vectorized decode-and-accumulate
// (VCVTPH2PS + VCVTPS2PD + VMULPD/VADDPD over the 4-aligned prefix);
// everywhere else DotFP16Generic runs. Both follow the same canonical
// summation order, so the score is bit-identical on every build.
func dotFP16(q []float64, c []uint16) float64 {
	n := len(q)
	if useDotFP16SIMD && n >= 8 {
		if len(c) != n {
			panic("index: dotFP16 length mismatch")
		}
		p := n &^ 3
		s := dotFP16SIMD(&q[0], &c[0], p)
		for i := p; i < n; i++ {
			s += float64(q[i] * FP16ToF64(c[i]))
		}
		return s
	}
	return DotFP16Generic(q, c)
}

// DotFP16 exposes the dispatched fp16 dot kernel for the kernel
// microbenchmark (`benchexp -exp kernel`); serving paths call dotFP16
// through the binary16 codec.
func DotFP16(q []float64, c []uint16) float64 { return dotFP16(q, c) }

// DotFP16Generic is the portable decode-and-accumulate kernel and the
// reference the SIMD path is tested against. It fixes the canonical
// summation order for fp16 scores: eight independent accumulators over
// 8-element blocks (two 4-lane AVX2 registers), folded pairwise, an
// optional 4-element block into the folded lanes, the (l0+l1)+(l2+l3)
// horizontal reduction, and a sequential scalar tail — with explicit
// float64 conversions pinning each product to one rounding step (no FMA
// contraction), exactly as in mat.DotGeneric.
func DotFP16Generic(q []float64, c []uint16) float64 {
	n := len(q)
	c = c[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += float64(q[i] * FP16ToF64(c[i]))
		s1 += float64(q[i+1] * FP16ToF64(c[i+1]))
		s2 += float64(q[i+2] * FP16ToF64(c[i+2]))
		s3 += float64(q[i+3] * FP16ToF64(c[i+3]))
		s4 += float64(q[i+4] * FP16ToF64(c[i+4]))
		s5 += float64(q[i+5] * FP16ToF64(c[i+5]))
		s6 += float64(q[i+6] * FP16ToF64(c[i+6]))
		s7 += float64(q[i+7] * FP16ToF64(c[i+7]))
	}
	l0, l1, l2, l3 := s0+s4, s1+s5, s2+s6, s3+s7
	if i+4 <= n {
		l0 += float64(q[i] * FP16ToF64(c[i]))
		l1 += float64(q[i+1] * FP16ToF64(c[i+1]))
		l2 += float64(q[i+2] * FP16ToF64(c[i+2]))
		l3 += float64(q[i+3] * FP16ToF64(c[i+3]))
		i += 4
	}
	s := (l0 + l1) + (l2 + l3)
	for ; i < n; i++ {
		s += float64(q[i] * FP16ToF64(c[i]))
	}
	return s
}

// maxHalf is the largest finite binary16 value.
const maxHalf = 65504

// f16Codec is the half-precision codec: scores are dotFP16 over the
// halves h of a row, final. It scans the certified way (certifiedScan)
// over keys, the int8 encoding of the same rows the layout's float64 cell
// holds, with the float64 codec's bound widened to cover rounding x to h.
//
// For |x_j| < 65520 round-to-nearest-even gives |h_j − x_j| ≤ 2⁻¹¹·|x_j|
// + 2⁻²⁵ − 2⁻³⁶: it is at most 2⁻¹¹·|x_j|/(1+2⁻¹¹) in the normal range and
// min(|x_j|, 2⁻²⁵) below it. With |x_j| ≤ w·(1+2⁻²²) + 2⁻¹¹⁷ (see
// f64Codec) the exact dots differ by
//
//	|q·h − q·x| ≤ ‖q‖₁·(2⁻¹¹·(1+2⁻²²)·w + 2⁻²⁵ − 2⁻³⁷),
//
// so the widening ‖q‖₁·(2⁻¹¹·(1+2⁻¹⁰)·w + 2⁻²⁵) covers it with
// ‖q‖₁·(2⁻²²·w + 2⁻³⁷) to spare. Where e's spare covered mat.Dot's
// rounding (see f64Codec), the spares now cover dotFP16's: eight lanes
// folded pairwise, a 4-block, the horizontal sum and a tail of at most
// three put each product through at most n/8 + 8 roundings, under
// 2⁻⁴³·Σ|q_j·h_j| for n ≤ 2¹², and Σ|q_j·h_j| ≤ ‖q‖₁·((1+2⁻¹¹)·max|x_j| +
// 2⁻²⁵). That is under ‖q‖₁·(2⁻⁴²·w + 2⁻⁶⁷), which the widening's spare
// absorbs along with the rounding of the widening's own factors; the
// float64 bound's other roundings stay inside e's. A value of 65520 or more
// rounds to ±Inf and puts w past maxHalf (see overflows): a block holding
// such a row certifies nothing and re-scores every row. A NaN off a row's
// first element leaves (s, b) finite, but the row's score is NaN, which a
// full top-k never admits, and a top-k not yet full admits every bound.
type f16Codec struct{}

func (f16Codec) prepare(pq *query, q []float64) { pq.prepareBound(q, true) }
func (f16Codec) final() bool                    { return true }
func (f16Codec) rowBytes(dim int) int           { return i8Codec{}.rowBytes(dim) }
func (f16Codec) rescoreBytes(dim int) int       { return 2 * dim }

func (f16Codec) alloc(n, dim int) Codes { return Codes{F16: make([]uint16, n*dim)} }

func (f16Codec) encodeRow(c Codes, j int, row []float64) {
	for x, v := range row {
		c.F16[j*len(row)+x] = F64ToFP16(v)
	}
}

func (f16Codec) scan(b *block, s span, ts []taker, l *lanes) int {
	return certifiedScan(b, b.keys, s, ts, l, scoreF16)
}

// scoreF16 is the binary16 codec's re-score of block row j: dotFP16 over
// its halves.
func scoreF16(q []float64, b *block, _ span, j int) float64 {
	dim, r := len(q), j%runRows
	return dotFP16(q, b.codes[j/runRows].F16[r*dim:(r+1)*dim])
}
