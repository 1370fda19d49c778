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

// dotI8SIMD computes the int32 inner product of the n int8 values at a
// and b using AVX2 (16-wide sign-extended multiply-add), with a scalar
// tail inside the assembly. n must be >= 1; the result is bit-identical
// to dotI8Generic. Implemented in sq8dot_amd64.s.
//
//go:noescape
func dotI8SIMD(a, b *int8, n int) int32

// useDotI8x4SIMD gates the four-query kernel; it needs what dotI8SIMD
// needs.
var useDotI8x4SIMD = useDotI8SIMD

// dotI8x4SIMD writes out[q] = aq · b over n int8 values (n a positive
// multiple of 16), loading b once for the four; every out[q] is
// bit-identical to dotI8Generic(aq, b). Implemented in sq8dot_amd64.s.
//
//go:noescape
func dotI8x4SIMD(a0, a1, a2, a3, b *int8, n int, out *[4]int32)

// DotI8ISA reports the instruction set the quantized int8 dot kernel
// dispatches to on this build and host.
func DotI8ISA() string {
	if useDotI8SIMD {
		return mat.ISAAVX2
	}
	return mat.ISAGeneric
}
