//go:build !amd64 || noasm

package mat

// useAVX2 is false on non-amd64 platforms and under the noasm build tag:
// every kernel runs its portable generic twin. The generic kernels follow
// the same canonical summation order as the assembly, so results stay
// bit-identical across builds.
const useAVX2 = false

// The stubs below are never reached (useAVX2 is a false constant, so the
// compiler removes the calls); they exist to keep the dispatch sites
// compiling on every platform.

func dotAVX2(a, b *float64, n int) float64 {
	panic("mat: dotAVX2 called on a noasm build")
}

func axpyAVX2(a float64, x, y *float64, n int) {
	panic("mat: axpyAVX2 called on a noasm build")
}

func gemmPanel4AVX2(dst, alpha, b *float64, p, n int) {
	panic("mat: gemmPanel4AVX2 called on a noasm build")
}

// kernelISA reports which instruction set the float64 kernels dispatch
// to on this build and host.
func kernelISA() string {
	return ISAGeneric
}
