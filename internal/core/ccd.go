package core

import (
	"time"

	"pane/internal/mat"
)

// Cost of one sweep, for n nodes, d attributes and k/2 coordinates per
// row. Either half visits every (row, coordinate) pair once — n·k/2 in the
// node phase, each over two length-d residual rows; d·k/2 in the attribute
// phase, each over two length-n residual columns — and a visit is two
// inner products and two rank-1 patches, 8 flops per residual element:
// 4·n·d·k flops per half-sweep (1.5 Gflop at n = 30,000, d = 100,
// k = 128), all of it inside mat.Dot and mat.AxpyVec. A node's working
// set is its two residual rows plus Y's columns (16·d + 4·k·d bytes, 53 KB
// there): L1/L2-resident, so the node phase runs at the kernels'
// arithmetic rate. An attribute's is its two residual columns plus one
// column pair of Xf/Xb, 32·n bytes (0.96 MB): L2-resident at best, and
// every visit moves 5 of those vectors (2 read by the dots, 2 read and
// written by the patches), 80·n bytes per 8·n flops — the attribute phase
// runs at the kernels' streaming rate (mat.dot_gbps), which is why it
// costs more than the node phase for the same flops.

// ccdNodeRow performs Lines 3-9 of Algorithm 4 for node row v: with Y
// fixed, each coordinate Xf[v,l] and Xb[v,l] is moved to its
// per-coordinate least-squares optimum using the maintained residuals:
//
//	μ_f(v,l) = Sf[v]·Y[:,l] / (Y[:,l]·Y[:,l])         (Eq. 16)
//	Xf[v,l] −= μ_f(v,l)                               (Eq. 13)
//	Sf[v]   −= μ_f(v,l)·Y[:,l]ᵀ                       (Eq. 18)
//
// and symmetrically for Xb/Sb. yNormInv caches 1/(Y[:,l]·Y[:,l]) and
// yColT holds Y's columns as contiguous rows. Different rows touch
// disjoint state, so a sweep parallelizes over rows without any change to
// the result.
func ccdNodeRow(st *state, yNormInv []float64, yColT *mat.Dense, v int) {
	sfRow := st.Sf.Row(v)
	sbRow := st.Sb.Row(v)
	xfRow := st.Xf.Row(v)
	xbRow := st.Xb.Row(v)
	for l, inv := range yNormInv {
		if inv == 0 {
			continue
		}
		ycol := yColT.Row(l)
		muF := mat.Dot(sfRow, ycol) * inv
		muB := mat.Dot(sbRow, ycol) * inv
		xfRow[l] -= muF
		xbRow[l] -= muB
		mat.AxpyVec(-muF, ycol, sfRow)
		mat.AxpyVec(-muB, ycol, sbRow)
	}
}

// ccdAttrRow performs Lines 10-14 of Algorithm 4 for attribute row r:
// with Xf, Xb fixed, each coordinate Y[r,l] moves to the joint optimum of
// the forward and backward losses:
//
//	μ_y(r,l) = (Xf[:,l]·Sf[:,r] + Xb[:,l]·Sb[:,r]) /
//	           (Xf[:,l]·Xf[:,l] + Xb[:,l]·Xb[:,l])   (Eq. 17)
//	Y[r,l]  −= μ_y(r,l)                              (Eq. 15)
//	Sf[:,r] −= μ_y(r,l)·Xf[:,l], Sb[:,r] −= μ_y·Xb[:,l]  (Eq. 20)
//
// xNormInv caches the combined column norms; xfColT/xbColT hold the
// columns of Xf/Xb as rows. The residual columns sfCol, sbCol arrive as
// contiguous copies (see ccdAttrRows) — walking Sf[:,r] in row-major
// n x d layout would stride by d and miss cache on every element.
func ccdAttrRow(st *state, xNormInv []float64, xfColT, xbColT *mat.Dense, sfCol, sbCol []float64, r int) {
	yRow := st.Y.Row(r)
	for l, inv := range xNormInv {
		if inv == 0 {
			continue
		}
		xfCol := xfColT.Row(l)
		xbCol := xbColT.Row(l)
		mu := (mat.Dot(xfCol, sfCol) + mat.Dot(xbCol, sbCol)) * inv
		yRow[l] -= mu
		mat.AxpyVec(-mu, xfCol, sfCol)
		mat.AxpyVec(-mu, xbCol, sbCol)
	}
}

// attrBlock is how many attribute columns ccdAttrRows copies out of the
// residuals at a time: 8 float64 are one 64-byte line of a residual row,
// so a gather reads each row's line once, and the copies (16·n float64
// per worker, 3.8 MB at n = 30,000) stay a fraction of a transpose of
// both residuals (2·n·d, 48 MB at d = 100).
const attrBlock = 8

// ccdAttrRows runs ccdAttrRow for each listed attribute, attrBlock at a
// time: their residual columns are gathered into buf (2·attrBlock x n),
// swept, and scattered back. Distinct attributes read and write disjoint
// residual columns, so workers with disjoint lists run side by side, and
// each column sees the same mat.Dot/mat.AxpyVec sequence as it would in
// place.
func ccdAttrRows(st *state, xNormInv []float64, xfColT, xbColT, buf *mat.Dense, attrs []int) {
	n, d := st.Sf.Rows, st.Sf.Cols
	for a0 := 0; a0 < len(attrs); a0 += attrBlock {
		cols := attrs[a0:min(a0+attrBlock, len(attrs))]
		for i := 0; i < n; i++ {
			sf, sb := st.Sf.Data[i*d:(i+1)*d], st.Sb.Data[i*d:(i+1)*d]
			for c, r := range cols {
				buf.Data[c*n+i] = sf[r]
				buf.Data[(attrBlock+c)*n+i] = sb[r]
			}
		}
		for c, r := range cols {
			ccdAttrRow(st, xNormInv, xfColT, xbColT, buf.Row(c), buf.Row(attrBlock+c), r)
		}
		for i := 0; i < n; i++ {
			sf, sb := st.Sf.Data[i*d:(i+1)*d], st.Sb.Data[i*d:(i+1)*d]
			for c, r := range cols {
				sf[r] = buf.Data[c*n+i]
				sb[r] = buf.Data[(attrBlock+c)*n+i]
			}
		}
	}
}

// refine runs iters full CCD sweeps (Algorithm 4 Lines 2-14 serially,
// Algorithm 8 when nb > 1): refineRows over every node and attribute.
func refine(st *state, iters, nb int) (node, attr time.Duration) {
	return refineRows(st, iters, nb, upTo(st.Xf.Rows), upTo(st.Y.Rows))
}

// upTo returns 0, 1, …, n−1.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// refineRows runs sweeps CCD iterations in which the node phase visits
// only the listed node rows and the attribute phase only the listed
// attribute rows (the delta-update path refines just the rows an update
// touched; a listed row moves exactly as it would in a full sweep from
// the same state). The two half-sweeps synchronize between each other,
// exactly as PSVDCCD requires; within a half-sweep rows are independent,
// so the parallel result is identical to the serial one for the same
// starting state. It returns the wall clock spent inside the node and the
// attribute half-sweeps.
//
// The column caches and each attribute worker's residual buffer are
// allocated once and refilled by each sweep: two n x k/2 transposes per
// sweep, and each residual element gathered and scattered once by the
// attribute phase (ccdAttrRows), O(n·d) streamed bytes cut across the nb
// workers — next to the O(n·d·k) updates they make cache-friendly.
func refineRows(st *state, sweeps, nb int, nodes, attrs []int) (node, attr time.Duration) {
	n, d, half := st.Xf.Rows, st.Y.Rows, st.Xf.Cols
	yColT := mat.New(half, d)
	norms := make([]float64, half)
	var xfColT, xbColT *mat.Dense
	var parts [][2]int
	var bufs []*mat.Dense
	if len(attrs) > 0 {
		xfColT, xbColT = mat.New(half, n), mat.New(half, n)
		parts = mat.SplitRanges(len(attrs), nb)
		bufs = make([]*mat.Dense, len(parts))
		for w := range bufs {
			bufs[w] = mat.New(2*attrBlock, n)
		}
	}
	for it := 0; it < sweeps; it++ {
		if len(nodes) > 0 {
			// Node phase: Y fixed. Cache Y's columns contiguously and
			// their inverse squared norms.
			transposeInto(yColT, st.Y, 1)
			for l := range norms {
				norms[l] = inverse(mat.Dot(yColT.Row(l), yColT.Row(l)))
			}
			start := time.Now()
			mat.ParallelRanges(len(nodes), mat.RowWorkers(len(nodes), nb), func(lo, hi int) {
				for _, v := range nodes[lo:hi] {
					ccdNodeRow(st, norms, yColT, v)
				}
			})
			node += time.Since(start)
		}
		if len(attrs) > 0 {
			// Attribute phase: Xf, Xb fixed.
			transposeInto(xfColT, st.Xf, nb)
			transposeInto(xbColT, st.Xb, nb)
			for l := range norms {
				norms[l] = inverse(mat.Dot(xfColT.Row(l), xfColT.Row(l)) + mat.Dot(xbColT.Row(l), xbColT.Row(l)))
			}
			start := time.Now()
			mat.ParallelRanges(len(parts), len(parts), func(lo, hi int) {
				for w := lo; w < hi; w++ {
					ccdAttrRows(st, norms, xfColT, xbColT, bufs[w], attrs[parts[w][0]:parts[w][1]])
				}
			})
			attr += time.Since(start)
		}
	}
	return node, attr
}

// inverse returns 1/s, or 0 for a coordinate whose column is all zero
// (which the sweeps then skip).
func inverse(s float64) float64 {
	if s > 0 {
		return 1 / s
	}
	return 0
}

// transposeInto overwrites dst (src.Cols x src.Rows) with srcᵀ, nb workers
// each taking a range of src's rows. A worker reads tileRows rows of src
// at a time — 64 x 100 float64 is 51 KB, L2-resident while its columns
// are peeled off — and writes each column as one contiguous 512-byte run.
func transposeInto(dst, src *mat.Dense, nb int) {
	const tileRows = 64
	r, c := src.Rows, src.Cols
	if dst.Rows != c || dst.Cols != r {
		panic("core: transposeInto shape mismatch")
	}
	mat.ParallelRanges(r, nb, func(lo, hi int) {
		for i0 := lo; i0 < hi; i0 += tileRows {
			i1 := min(i0+tileRows, hi)
			for j := 0; j < c; j++ {
				col := dst.Data[j*r : (j+1)*r]
				for i := i0; i < i1; i++ {
					col[i] = src.Data[i*c+j]
				}
			}
		}
	})
}

// Objective evaluates Equation (4), the total squared error
// ‖Xf·Yᵀ − F'‖² + ‖Xb·Yᵀ − B'‖², recomputed from scratch (not from the
// maintained residuals) so tests can cross-check residual maintenance.
func Objective(e *Embedding, f, b *mat.Dense) float64 {
	rf := mat.MulBT(e.Xf.Dense(), e.Y)
	rf.Sub(f)
	rb := mat.MulBT(e.Xb.Dense(), e.Y)
	rb.Sub(b)
	nf := rf.FrobeniusNorm()
	nbn := rb.FrobeniusNorm()
	return nf*nf + nbn*nbn
}
