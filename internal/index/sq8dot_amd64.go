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

// dotI8RowsAVX2 is dotI8Rows over ng >= 1 groups of codes with pairs >= 1
// dimension pairs, against the first nq (1 to 4) queries of l.
// Implemented in sq8dot_amd64.s.
//
//go:noescape
func dotI8RowsAVX2(l *lanes, nq, pairs int, codes *int8, scale, base *float32, ng int, bound bool)

// dotI8RowsSIMD runs dotI8Rows on the AVX2 kernel, if the host and the
// shape allow, and reports whether it did.
func dotI8RowsSIMD(l *lanes, nq int, codes []int8, scale, base []float32, bound bool) bool {
	if !useDotI8SIMD || len(l.q[0]) == 0 {
		return false
	}
	dotI8RowsAVX2(l, nq, len(l.q[0])/2, &codes[0], &scale[0], &base[0], len(scale)/groupRows, bound)
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
