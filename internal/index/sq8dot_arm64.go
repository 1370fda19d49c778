//go:build arm64 && !noasm

package index

import "pane/internal/mat"

// Advanced SIMD (NEON) is part of the baseline ARMv8-A profile and Go's
// arm64 port already assumes it, so unlike amd64 there is no feature
// check: the vector kernel is always usable. The kernel deliberately
// sticks to baseline SXTL/SMLAL rather than SDOT — the DotProd extension
// is optional pre-ARMv8.4, takes int8 operands only, and detecting it
// portably needs OS hwcaps.

// dotI8NEON computes the int32 inner product of the n >= 1 16-bit query
// values at q with the n int8 codes at c using NEON (16 codes per step,
// widened and multiply-accumulated into int32 lanes), with a scalar tail
// inside the assembly. Integer addition is exact and queryLevels keeps
// every partial sum inside int32, so the result is dotI8's. Implemented
// in sq8dot_arm64.s.
//
//go:noescape
func dotI8NEON(q *int16, c *int8, n int) int32

// dotI8RowsSIMD runs dotI8Rows with a NEON dot per row under the Go
// arithmetic of factors.score, and reports whether it did.
func dotI8RowsSIMD(pq *query, codes []int8, scale, base []float32, out []float64, bound bool) bool {
	dim := len(pq.i16)
	if dim == 0 {
		return false
	}
	for r := range out {
		out[r] = pq.score(dotI8NEON(&pq.i16[0], &codes[r*dim], dim), scale[r], base[r], bound)
	}
	return true
}

// DotI8ISA reports the instruction set the int8 row kernel dispatches to
// on this build and host.
func DotI8ISA() string {
	return mat.ISANEON
}
