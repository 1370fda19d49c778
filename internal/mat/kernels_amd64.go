//go:build amd64 && !noasm

package mat

// useAVX2 gates the float64 assembly kernels in kernels_amd64.s. The
// check (done once at init) requires AVX2 plus OS support for saving the
// ymm state (OSXSAVE + XGETBV), mirroring internal/index's int8 kernel.
var useAVX2 = cpuHasAVX2F64()

// cpuHasAVX2F64 reports whether the CPU and OS support the AVX2 kernels.
// Implemented in kernels_amd64.s.
func cpuHasAVX2F64() bool

// dotAVX2 returns the dot product of the first n elements of a and b
// using the canonical summation order documented on DotGeneric. n must be
// a multiple of 4; the caller adds the scalar tail in the same order the
// generic kernel would.
//
//go:noescape
func dotAVX2(a, b *float64, n int) float64

// axpyAVX2 performs y[i] += a*x[i] for i in [0,n). n must be a multiple
// of 4; the caller handles the tail.
//
//go:noescape
func axpyAVX2(a float64, x, y *float64, n int)

// gemmPanel4AVX2 accumulates the four-row panel microkernel over the
// first p columns (p a multiple of 4): dst[j] += alpha[0]*b[j] +
// alpha[1]*b[n+j] + alpha[2]*b[2n+j] + alpha[3]*b[3n+j], adds applied in
// panel order, one rounding per product (no FMA). n is the row stride of
// b; the caller handles columns [p,n).
//
//go:noescape
func gemmPanel4AVX2(dst, alpha, b *float64, p, n int)

// kernelISA reports which instruction set the float64 kernels dispatch
// to on this build and host.
func kernelISA() string {
	if useAVX2 {
		return ISAAVX2
	}
	return ISAGeneric
}
