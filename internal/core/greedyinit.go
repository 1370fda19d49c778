package core

import (
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

// embedding publishes the solver's factors, wrapped without a copy: st
// must not be swept afterwards.
func (st *state) embedding() *Embedding {
	return &Embedding{Xf: mat.Page(st.Xf), Xb: mat.Page(st.Xb), Y: st.Y}
}

// GreedyInit (Algorithm 3) seeds the solver: a randomized SVD of F' gives
// Xf = UΣ and Y = V so that Xf·Yᵀ ≈ F' immediately; the near-unitarity of
// V then makes Xb = B'·Y a good seed for the backward factor. The
// residuals are initialized in full once here and only patched
// incrementally afterwards.
func GreedyInit(f, b *mat.Dense, k, t int, rng *rand.Rand, nb int) *state {
	half := k / 2
	res := svd.RandSVD(f, half, t, rng, nb)
	y := res.V
	xf := res.UScaled()
	xf = padCols(xf, half)
	y = padCols(y, half)
	xb := mat.ParMul(b, y, nb)
	sf := mat.ParMulBT(xf, y, nb)
	sf.Sub(f)
	sb := mat.ParMulBT(xb, y, nb)
	sb.Sub(b)
	return &state{Xf: xf, Xb: xb, Y: y, Sf: sf, Sb: sb, svdTime: res.Time}
}

// RandomInit seeds the solver with small Gaussian embeddings instead of
// the greedy SVD — the PANE-R ablation of §5.7 (Figures 7 and 8).
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
	sf := mat.ParMulBT(xf, y, nb)
	sf.Sub(f)
	sb := mat.ParMulBT(xb, y, nb)
	sb.Sub(b)
	return &state{Xf: xf, Xb: xb, Y: y, Sf: sf, Sb: sb}
}

// SMGreedyInit (Algorithm 7) is the split-merge parallel variant of
// GreedyInit: F' is split into nb row blocks, each block is factorized
// independently, the per-block right factors are merged by a second small
// SVD, and the left factors are stitched through the merge weights W. The
// result is close to — but not identical to — GreedyInit's (Lemma 4.2
// shows they coincide when every SVD is exact), which is the source of the
// parallel algorithm's small utility loss discussed in §5.6.
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
	// and the residual blocks (Lines 7-11).
	xf := mat.New(n, half)
	xb := mat.New(n, half)
	sf := mat.New(n, f.Cols)
	sb := mat.New(n, f.Cols)
	mat.ParallelRanges(len(blocks), len(blocks), func(blo, bhi int) {
		for iw := blo; iw < bhi; iw++ {
			rg := blocks[iw]
			wBlock := w.RowView(iw*half, (iw+1)*half)
			xfBlock := mat.Mul(factors[iw].u, wBlock)
			xf.RowView(rg[0], rg[1]).CopyFrom(xfBlock)
			xbBlock := mat.Mul(b.RowView(rg[0], rg[1]), y)
			xb.RowView(rg[0], rg[1]).CopyFrom(xbBlock)
			sfBlock := mat.MulBT(xfBlock, y)
			sfBlock.Sub(f.RowView(rg[0], rg[1]))
			sf.RowView(rg[0], rg[1]).CopyFrom(sfBlock)
			sbBlock := mat.MulBT(xbBlock, y)
			sbBlock.Sub(b.RowView(rg[0], rg[1]))
			sb.RowView(rg[0], rg[1]).CopyFrom(sbBlock)
		}
	})
	return &state{Xf: xf, Xb: xb, Y: y, Sf: sf, Sb: sb, svdTime: svdTime}
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
