//go:build (!amd64 && !arm64) || noasm

package index

import "pane/internal/mat"

// Builds without a vector kernel (other architectures, or any platform
// under the noasm tag) always take the portable int8 kernel.
const (
	useDotI8SIMD     = false
	useDotI8RowsSIMD = false
)

// dotI8SIMD and dotI8RowsSIMD are never called when their gates are false;
// these stubs keep the portable build compiling.
func dotI8SIMD(a, b *int8, n int) int32 {
	panic("index: dotI8SIMD called on a build without SIMD support")
}

func dotI8RowsSIMD(q, rows *int8, dim, n int, out *int32) {
	panic("index: dotI8RowsSIMD called on a build without SIMD support")
}

// DotI8ISA reports the instruction set the quantized int8 dot kernel
// dispatches to on this build and host.
func DotI8ISA() string {
	return mat.ISAGeneric
}
