//go:build (!amd64 && !arm64) || noasm

package index

import "pane/internal/mat"

// Builds without a vector kernel (other architectures, or any platform
// under the noasm tag) always take the portable int8 kernel.
func dotI8RowsSIMD(pq *query, codes []int8, scale, base []float32, out []float64, bound bool) bool {
	return false
}

// DotI8ISA reports the instruction set the int8 row kernel dispatches to
// on this build and host.
func DotI8ISA() string {
	return mat.ISAGeneric
}
