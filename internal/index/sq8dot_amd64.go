//go:build amd64 && !noasm

package index

import "pane/internal/mat"

// useDotI8SIMD gates the AVX2 quantized-dot kernel. Detection runs once
// at init: CPUID-reported AVX2 plus OS support for saving YMM state
// (OSXSAVE + XGETBV), the standard pair of checks — AVX2 alone is not
// enough on kernels that do not context-switch the upper register
// halves.
var useDotI8SIMD = cpuHasAVX2()

// cpuHasAVX2 is implemented in sq8dot_amd64.s.
func cpuHasAVX2() bool

// useDotI8RowsSIMD gates the row-block kernel; it needs what dotI8SIMD
// needs.
var useDotI8RowsSIMD = useDotI8SIMD

// dotI8RowsSIMD writes out[r] = q · row r for the n >= 1 rows of dim >= 16
// int8 values at rows, using AVX2; every out[r] is bit-identical to
// dotI8Generic. Implemented in sq8dot_amd64.s.
//
//go:noescape
func dotI8RowsSIMD(q, rows *int8, dim, n int, out *int32)

// dotI8SIMD computes the int32 inner product of the n >= 16 int8 values
// at a and b: the row-block kernel on one row.
func dotI8SIMD(a, b *int8, n int) (d int32) {
	dotI8RowsSIMD(a, b, n, 1, &d)
	return d
}

// DotI8ISA reports the instruction set the quantized int8 dot kernel
// dispatches to on this build and host.
func DotI8ISA() string {
	if useDotI8SIMD {
		return mat.ISAAVX2
	}
	return mat.ISAGeneric
}
