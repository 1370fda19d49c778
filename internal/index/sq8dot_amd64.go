//go:build amd64 && !noasm

package index

import "pane/internal/mat"

// useDotI8SIMD gates the AVX2 int8 row kernel. Detection runs once at
// init: CPUID-reported AVX2 plus OS support for saving YMM state
// (OSXSAVE + XGETBV), the standard pair of checks — AVX2 alone is not
// enough on kernels that do not context-switch the upper register
// halves.
var useDotI8SIMD = cpuHasAVX2()

// cpuHasAVX2 is implemented in sq8dot_amd64.s.
func cpuHasAVX2() bool

// dotI8RowsAVX2 writes to out[r], for the n >= 1 rows of dim >= 16 int8
// codes at rows (parameters scale[r], base[r]), f.bound of the row's dot
// with the 16-bit query q when bound is set, else f.approx: the bits
// factors.score computes over dotI8's sum. Implemented in sq8dot_amd64.s.
//
//go:noescape
func dotI8RowsAVX2(q *int16, rows *int8, dim, n int, scale, base *float32, f *factors, out *float64, bound bool)

// dotI8RowsSIMD runs dotI8Rows on the AVX2 kernel, if the host and the
// shape allow, and reports whether it did.
func dotI8RowsSIMD(pq *query, codes []int8, scale, base []float32, out []float64, bound bool) bool {
	dim := len(pq.i16)
	if !useDotI8SIMD || dim < 16 || len(out) == 0 {
		return false
	}
	dotI8RowsAVX2(&pq.i16[0], &codes[0], dim, len(out), &scale[0], &base[0], &pq.factors, &out[0], bound)
	return true
}

// DotI8ISA reports the instruction set the int8 row kernel dispatches to
// on this build and host.
func DotI8ISA() string {
	if useDotI8SIMD {
		return mat.ISAAVX2
	}
	return mat.ISAGeneric
}
