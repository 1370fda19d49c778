package mat

import (
	"fmt"
	"runtime"
	"sync"
)

// Mul returns a*b using a cache-blocked single-threaded kernel. It panics
// when the inner dimensions disagree.
func Mul(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes dst = a*b, overwriting dst. dst must be preallocated
// with shape a.Rows x b.Cols and must not alias a or b.
func MulInto(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulInto dst shape mismatch")
	}
	dst.Zero()
	gemmRows(dst, a, b, 0, a.Rows)
}

// gemmRows accumulates rows [lo,hi) of a*b into dst. The i-k-j loop order
// streams both b's rows and dst's rows with unit stride, which is the
// standard cache-friendly ordering for row-major data. The k dimension is
// consumed in panels of four b-rows at a time (gemmPanel4, the blocked
// microkernel the AVX2 path vectorizes) with axpyTo sweeping the k%4
// remainder; every output element still accumulates its k products in
// strictly ascending p order, one rounding per product, so the SIMD and
// generic builds produce bit-identical results. There is deliberately no
// zero-coefficient skip: a skipped a[p]==0 and an added ±0 product are
// not always the same float64, and the one canonical order must not
// depend on the data.
func gemmRows(dst, a, b *Dense, lo, hi int) {
	n, k := b.Cols, a.Cols
	if n == 0 {
		return
	}
	for i := lo; i < hi; i++ {
		ai := a.Data[i*k : (i+1)*k]
		di := dst.Data[i*n : (i+1)*n]
		p := 0
		for ; p+4 <= k; p += 4 {
			gemmPanel4(di, ai[p:p+4:p+4], b.Data[p*n:(p+4)*n], n)
		}
		for ; p < k; p++ {
			axpyTo(di, ai[p], b.Data[p*n:(p+1)*n])
		}
	}
}

// gemmRowsGeneric is gemmRows pinned to the portable kernels; it is the
// reference the SIMD GEMM path is tested against and must follow the
// exact same panel decomposition and accumulation order.
func gemmRowsGeneric(dst, a, b *Dense, lo, hi int) {
	n, k := b.Cols, a.Cols
	if n == 0 {
		return
	}
	for i := lo; i < hi; i++ {
		ai := a.Data[i*k : (i+1)*k]
		di := dst.Data[i*n : (i+1)*n]
		p := 0
		for ; p+4 <= k; p += 4 {
			GemmPanel4Generic(di, ai[p:p+4:p+4], b.Data[p*n:(p+4)*n], n)
		}
		for ; p < k; p++ {
			AxpyGeneric(di, ai[p], b.Data[p*n:(p+1)*n])
		}
	}
}

// gemmPanel4 accumulates a four-row panel into one dst row:
// dst[j] += alpha[0]*b[j] + alpha[1]*b[n+j] + alpha[2]*b[2n+j] +
// alpha[3]*b[3n+j] for j in [0,n), with the four adds applied in panel
// order per element. b holds four consecutive rows of length n; alpha
// holds the four a-row coefficients multiplying them.
func gemmPanel4(dst []float64, alpha []float64, b []float64, n int) {
	if useAVX2 && n >= 4 {
		p := n &^ 3
		gemmPanel4AVX2(&dst[0], &alpha[0], &b[0], p, n)
		a0, a1, a2, a3 := alpha[0], alpha[1], alpha[2], alpha[3]
		for j := p; j < n; j++ {
			s := dst[j] + float64(a0*b[j])
			s += float64(a1 * b[n+j])
			s += float64(a2 * b[2*n+j])
			s += float64(a3 * b[3*n+j])
			dst[j] = s
		}
		return
	}
	GemmPanel4Generic(dst, alpha, b, n)
}

// GemmPanel4Generic is the portable four-row panel microkernel and the
// reference the SIMD path is tested against. The explicit float64
// conversions pin each product to one rounding step (no FMA contraction),
// matching the VMULPD+VADDPD sequence of the assembly kernel exactly.
func GemmPanel4Generic(dst []float64, alpha []float64, b []float64, n int) {
	a0, a1, a2, a3 := alpha[0], alpha[1], alpha[2], alpha[3]
	b0, b1, b2, b3 := b[0:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
	for j, d := range dst[:n] {
		s := d + float64(a0*b0[j])
		s += float64(a1 * b1[j])
		s += float64(a2 * b2[j])
		s += float64(a3 * b3[j])
		dst[j] = s
	}
}

// MulIntoGeneric is MulInto pinned to the portable kernels regardless of
// CPU features — the reference implementation the SIMD GEMM path is
// property-tested and benchmarked against. It must produce bit-identical
// output to MulInto on every platform.
func MulIntoGeneric(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulInto dst shape mismatch")
	}
	dst.Zero()
	gemmRowsGeneric(dst, a, b, 0, a.Rows)
}

// ParMul returns a*b computed with nb worker goroutines partitioning the
// rows of a. nb <= 1 falls back to the serial kernel. The result is
// bit-identical to Mul because each output row is owned by one worker.
func ParMul(a, b *Dense, nb int) *Dense {
	out := New(a.Rows, b.Cols)
	ParMulInto(out, a, b, nb)
	return out
}

// ParMulInto computes dst = a*b with nb workers. See ParMul.
func ParMulInto(dst, a, b *Dense, nb int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: ParMul inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: ParMulInto dst shape mismatch")
	}
	dst.Zero()
	if nb <= 1 || a.Rows < 2 {
		gemmRows(dst, a, b, 0, a.Rows)
		return
	}
	if nb > runtime.NumCPU()*4 {
		nb = runtime.NumCPU() * 4
	}
	ParallelRanges(a.Rows, nb, func(lo, hi int) {
		gemmRows(dst, a, b, lo, hi)
	})
}

// MulRowInto computes dst = a·b for one row vector a, a single output row
// of a product, using the same accumulation kernel (and therefore the
// same float rounding) as Mul/ParMul. Incremental rebuilds rely on this
// bit-identity: recomputing only the rows of a product that changed
// yields exactly the rows a full recompute would. dst must have length
// b.Cols and must not alias a or b.
func MulRowInto(dst, a []float64, b *Dense) {
	if len(a) != b.Rows {
		panic(fmt.Sprintf("mat: MulRowInto inner dimension mismatch 1x%d * %dx%d", len(a), b.Rows, b.Cols))
	}
	if len(dst) != b.Cols {
		panic("mat: MulRowInto dst length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	gemmRows(&Dense{Rows: 1, Cols: b.Cols, Data: dst}, &Dense{Rows: 1, Cols: len(a), Data: a}, b, 0, 1)
}

// MulAT returns aᵀ*b without materializing aᵀ. a is r x c, b is r x n,
// the result is c x n. This is the shape needed for Y-updates in CCD and
// for projecting in RandSVD. Every output row accumulates its r rank-1
// terms in ascending row order through the axpy kernel, one rounding per
// product, so the result is the same on every build and ISA.
func MulAT(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulAT dimension mismatch %dx%d ᵀ* %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		ai := a.Row(i)
		bi := b.Data[i*n : (i+1)*n]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			axpyTo(out.Data[p*n:(p+1)*n], av, bi)
		}
	}
	return out
}

// MulBT returns a*bᵀ without materializing bᵀ. a is r x c, b is n x c,
// the result is r x n. Used to form residuals X·Yᵀ − F'.
func MulBT(a, b *Dense) *Dense {
	out := New(a.Rows, b.Rows)
	MulBTInto(out, a, b)
	return out
}

// MulBTInto computes dst = a*bᵀ into a preallocated dst (r x n).
func MulBTInto(dst, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulBT dimension mismatch %dx%d * %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: MulBTInto dst shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			di[j] = Dot(ai, b.Row(j))
		}
	}
}

// ParMulBT is MulBT parallelized over rows of a with nb workers.
func ParMulBT(a, b *Dense, nb int) *Dense {
	out := New(a.Rows, b.Rows)
	if nb <= 1 || a.Rows < 2 {
		MulBTInto(out, a, b)
		return out
	}
	ParallelRanges(a.Rows, nb, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.Row(i)
			di := out.Row(i)
			for j := 0; j < b.Rows; j++ {
				di[j] = Dot(ai, b.Row(j))
			}
		}
	})
	return out
}

// ParallelRanges splits [0, n) into at most nb contiguous chunks and runs
// fn(lo, hi) for each chunk on its own goroutine, waiting for all of them.
// It is the scheduling primitive shared by every parallel kernel in the
// repository, matching the paper's explicit nb-thread model (Algorithm 5).
func ParallelRanges(n, nb int, fn func(lo, hi int)) {
	if nb < 1 {
		nb = 1
	}
	if nb > n {
		nb = n
	}
	if nb <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + nb - 1) / nb
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// RowWorkers is the worker count for a loop over a delta's rows: nb, cut
// so that every worker owns at least 32 rows — an update's dozen loops
// over 16–80 rows run inline instead of forking goroutines for
// microseconds of work. Only where each row is owned by one worker, so
// the worker count cannot show in the result.
func RowWorkers(rows, nb int) int { return min(nb, rows/32) }

// SplitRanges returns the chunk boundaries ParallelRanges would use: a
// slice of [lo,hi) pairs covering [0,n) in at most nb pieces. Exposed so
// algorithms that need stable block identities (e.g. SMGreedyInit's
// per-block SVDs) can iterate the same partition deterministically.
func SplitRanges(n, nb int) [][2]int {
	if nb < 1 {
		nb = 1
	}
	if nb > n {
		nb = n
	}
	if n == 0 {
		return nil
	}
	chunk := (n + nb - 1) / nb
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
