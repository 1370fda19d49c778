package core

import (
	"fmt"
	"math/rand"

	"pane/internal/mat"
	"pane/internal/svd"
)

// Embedding bundles PANE's output: forward and backward node embeddings
// (n x k/2 each) and attribute embeddings (d x k/2). It is immutable; the
// node factors are row-paged so an update (dynamic.go) shares every page
// it does not write with the embedding it started from.
type Embedding struct {
	Xf, Xb *mat.Paged
	Y      *mat.Dense
}

// K returns the total per-node space budget (twice the column count).
func (e *Embedding) K() int { return 2 * e.Xf.Cols }

// state is the mutable solver state: the factors, contiguous for the
// sweeps, plus the dynamically maintained residuals Sf = Xf·Yᵀ − F' and
// Sb = Xb·Yᵀ − B'. svdTime is where the initializer's randomized SVDs
// spent their time (Timing).
type state struct {
	Xf, Xb, Y *mat.Dense
	Sf, Sb    *mat.Dense
	svdTime   svd.StageTime
}

// embedding publishes the solver's factors: Xf and Xb are copied onto
// pages of their own once, and Y is handed over, so st must not be swept
// afterwards. The residuals, each n x d and the largest part of the
// state, are dropped first, so the copy never sits beside them once the
// collector has run.
func (st *state) embedding() *Embedding {
	st.Sf, st.Sb = nil, nil
	return &Embedding{Xf: st.Xf.Paged(), Xb: st.Xb.Paged(), Y: st.Y}
}

// GreedyInit (Algorithm 3) seeds the solver: a randomized SVD of F' gives
// Xf = UΣ and Y = V so that Xf·Yᵀ ≈ F' immediately; the near-unitarity of
// V then makes Xb = B'·Y a good seed for the backward factor. The
// residuals are initialized in full once here and only patched
// incrementally afterwards.
//
// Like every initializer here, it takes ownership of f and b: they become
// the residuals Sf and Sb in place (see residualize), so the caller must
// not read them afterwards.
func GreedyInit(f, b *mat.Dense, k, t int, rng *rand.Rand, nb int) *state {
	half := k / 2
	res := svd.RandSVD(f, half, t, rng, nb)
	xf := padCols(res.UScaled(), half)
	y := padCols(res.V, half)
	xb := mat.ParMul(b, y, nb)
	residualize(f, xf, y, nb)
	residualize(b, xb, y, nb)
	return &state{Xf: xf, Xb: xb, Y: y, Sf: f, Sb: b, svdTime: res.Time}
}

// residualize overwrites each target row t[i] with its residual
// x[i]·Yᵀ − t[i], nb workers each owning a range of rows: element j is
// mat.Dot(x[i], y[j]) − t[i][j], the one subtraction Dense.Sub makes after
// a mat.MulBT, so the residual's bits are those of the product-then-Sub
// it replaces, without a second n x d matrix.
func residualize(t, x, y *mat.Dense, nb int) {
	if t.Rows != x.Rows || t.Cols != y.Rows || x.Cols != y.Cols {
		panic(fmt.Sprintf("core: residualize %dx%d target, %dx%d x, %dx%d y", t.Rows, t.Cols, x.Rows, x.Cols, y.Rows, y.Cols))
	}
	mat.ParallelRanges(t.Rows, mat.RowWorkers(t.Rows, nb), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ti, xi := t.Row(i), x.Row(i)
			for j := range ti {
				ti[j] = mat.Dot(xi, y.Row(j)) - ti[j]
			}
		}
	})
}

// RandomInit seeds the solver with small Gaussian embeddings instead of
// the greedy SVD — the PANE-R ablation of §5.7 (Figures 7 and 8). It takes
// ownership of f and b, as GreedyInit does.
func RandomInit(f, b *mat.Dense, k int, rng *rand.Rand, nb int) *state {
	half := k / 2
	n, d := f.Rows, f.Cols
	gauss := func(r, c int) *mat.Dense {
		m := mat.New(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64() * 0.1
		}
		return m
	}
	xf, xb, y := gauss(n, half), gauss(n, half), gauss(d, half)
	residualize(f, xf, y, nb)
	residualize(b, xb, y, nb)
	return &state{Xf: xf, Xb: xb, Y: y, Sf: f, Sb: b}
}

// SMGreedyInit (Algorithm 7) is the split-merge parallel variant of
// GreedyInit: F' is split into nb row blocks, each block is factorized
// independently, the per-block right factors are merged by a second small
// SVD, and the left factors are stitched through the merge weights W. The
// result is close to — but not identical to — GreedyInit's (Lemma 4.2
// shows they coincide when every SVD is exact), which is the source of the
// parallel algorithm's small utility loss discussed in §5.6. It takes
// ownership of f and b, as GreedyInit does.
func SMGreedyInit(f, b *mat.Dense, k, t int, rng *rand.Rand, nb int) *state {
	half := k / 2
	n := f.Rows
	if nb <= 1 || n < 2*half {
		return GreedyInit(f, b, k, t, rng, nb)
	}
	blocks := mat.SplitRanges(n, nb)
	// Every block must be at least half tall for a rank-half SVD to make
	// sense; fall back to the serial initializer otherwise.
	for _, rg := range blocks {
		if rg[1]-rg[0] < half {
			return GreedyInit(f, b, k, t, rng, nb)
		}
	}
	type blockFactor struct {
		u    *mat.Dense // (block rows) x half, already scaled by Σ
		v    *mat.Dense // d x half
		time svd.StageTime
	}
	factors := make([]blockFactor, len(blocks))
	// Pre-draw per-block RNG seeds deterministically so the parallel
	// execution order cannot change the result.
	seeds := make([]int64, len(blocks))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	mat.ParallelRanges(len(blocks), len(blocks), func(blo, bhi int) {
		for w := blo; w < bhi; w++ {
			rg := blocks[w]
			blockRng := rand.New(rand.NewSource(seeds[w]))
			res := svd.RandSVD(f.RowView(rg[0], rg[1]), half, t, blockRng, 1)
			factors[w] = blockFactor{u: padCols(res.UScaled(), half), v: padCols(res.V, half), time: res.Time}
		}
	})
	// Merge: stack V1ᵀ..Vnbᵀ into a (nb·half) x d matrix and decompose it.
	// The blocks ran side by side, so the slowest one is what their SVDs
	// cost on the clock; the merge SVD below comes on top.
	var svdTime svd.StageTime
	stacked := make([]*mat.Dense, len(blocks))
	for i, fac := range factors {
		stacked[i] = fac.v.T()
		if bt := fac.time; bt.Sketch+bt.QR+bt.Project > svdTime.Sketch+svdTime.QR+svdTime.Project {
			svdTime = bt
		}
	}
	vBig := mat.StackRows(stacked...)
	mergeRng := rand.New(rand.NewSource(rng.Int63()))
	merged := svd.RandSVD(vBig, half, t, mergeRng, nb)
	svdTime.Sketch += merged.Time.Sketch
	svdTime.QR += merged.Time.QR
	svdTime.Project += merged.Time.Project
	y := padCols(merged.V, half)
	w := padCols(merged.UScaled(), half) // (nb·half) x half
	// Stitch: Xf[Vi] = Ui · W[i·half:(i+1)·half], Xb[Vi] = B'[Vi]·Y,
	// each written straight into its rows, and the residual blocks (Lines
	// 7-11) made in place over F'[Vi] and B'[Vi] — B'[Vi] after Xb[Vi] has
	// read it.
	xf := mat.New(n, half)
	xb := mat.New(n, half)
	mat.ParallelRanges(len(blocks), len(blocks), func(blo, bhi int) {
		for iw := blo; iw < bhi; iw++ {
			rg := blocks[iw]
			xfBlock, xbBlock := xf.RowView(rg[0], rg[1]), xb.RowView(rg[0], rg[1])
			mat.MulInto(xfBlock, factors[iw].u, w.RowView(iw*half, (iw+1)*half))
			factors[iw].u = nil // read once: the collector may take it now
			mat.MulInto(xbBlock, b.RowView(rg[0], rg[1]), y)
			residualize(f.RowView(rg[0], rg[1]), xfBlock, y, 1)
			residualize(b.RowView(rg[0], rg[1]), xbBlock, y, 1)
		}
	})
	return &state{Xf: xf, Xb: xb, Y: y, Sf: f, Sb: b, svdTime: svdTime}
}

// padCols widens m with zero columns up to want columns, when a truncated
// SVD returned fewer directions than requested (rank-deficient input).
func padCols(m *mat.Dense, want int) *mat.Dense {
	if m.Cols >= want {
		return m
	}
	out := mat.New(m.Rows, want)
	out.SetColSlice(0, m)
	return out
}
