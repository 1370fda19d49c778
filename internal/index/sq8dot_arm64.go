//go:build arm64 && !noasm

package index

import "pane/internal/mat"

// Advanced SIMD (NEON) is part of the baseline ARMv8-A profile and Go's
// arm64 port already assumes it, so unlike amd64 there is no feature
// check: the vector kernel is always usable. The kernel deliberately
// sticks to baseline SMULL/SADALP rather than SDOT — the DotProd
// extension is optional pre-ARMv8.4 and detecting it portably needs OS
// hwcaps, while the widening multiply path runs everywhere at roughly
// the same cost for these vector widths.
const useDotI8SIMD = true

// dotI8SIMD computes the int32 inner product of the n int8 values at a
// and b using NEON (16-wide widening multiply, pairwise-accumulate),
// with a scalar tail inside the assembly. n must be >= 1; integer
// addition is exact, so the result is bit-identical to dotI8Generic.
// Implemented in sq8dot_arm64.s.
//
//go:noescape
func dotI8SIMD(a, b *int8, n int) int32

// There is no row-block NEON kernel: dotI8Rows makes one dotI8SIMD call
// a row.
const useDotI8RowsSIMD = false

func dotI8RowsSIMD(q, rows *int8, dim, n int, out *int32) {
	panic("index: dotI8RowsSIMD called on arm64")
}

// DotI8ISA reports the instruction set the quantized int8 dot kernel
// dispatches to on this build and host.
func DotI8ISA() string {
	return mat.ISANEON
}
