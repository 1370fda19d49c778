package baselines

import (
	"math"
	"math/rand"

	"pane/internal/graph"
	"pane/internal/mat"
	"pane/internal/sparse"
	"pane/internal/svd"
)

// NRPEmbedding holds NRP's forward/backward node embeddings: the link
// score for a directed edge (u,v) is Xf[u]·Xb[v] (§5.3 of the paper).
type NRPEmbedding struct {
	Xf, Xb *mat.Dense
}

// NRPConfig parameterizes NRP.
type NRPConfig struct {
	K     int     // total budget; each side gets K/2
	Alpha float64 // PPR stopping probability
	T     int     // PPR truncation length
	Seed  int64
	NB    int // worker threads
}

// DefaultNRPConfig mirrors PANE's defaults for a fair comparison.
func DefaultNRPConfig() NRPConfig {
	return NRPConfig{K: 128, Alpha: 0.5, T: 6, Seed: 1, NB: 1}
}

// pprOp is the implicit personalized-PageRank proximity operator
// Π = α·Σ_{ℓ=0}^{T}(1−α)^ℓ·P^ℓ, exposed to randomized SVD through SpMM
// passes only — this is how NRP (and RandNE/STRAP before it) avoids the
// O(n²) proximity matrix.
type pprOp struct {
	p, pt sparse.Scaled
	alpha float64
	t     int
	nb    int
}

func (o pprOp) Dims() (int, int) { return o.p.Dims() }

func (o pprOp) series(m sparse.Scaled, x *mat.Dense) *mat.Dense {
	term := x.Clone()
	acc := x.Clone()
	acc.Scale(o.alpha)
	for l := 1; l <= o.t; l++ {
		next := m.ParMulDense(term, o.nb)
		next.Scale(1 - o.alpha)
		term = next
		scaled := term.Clone()
		scaled.Scale(o.alpha)
		acc.AddScaled(1, scaled)
	}
	return acc
}

func (o pprOp) Apply(x *mat.Dense) *mat.Dense  { return o.series(o.p, x) }
func (o pprOp) ApplyT(x *mat.Dense) *mat.Dense { return o.series(o.pt, x) }

// NRP computes the NRP baseline embedding. Relative to the published
// method we keep the PPR-proximity factorization (its core) and replace
// the iterative degree-reweighting post-pass with square-root singular
// value splitting, which serves the same role of balancing the two sides;
// DESIGN.md records the substitution.
func NRP(g *graph.Graph, cfg NRPConfig) *NRPEmbedding {
	p, pt := g.Walk()
	op := pprOp{p: p, pt: pt, alpha: cfg.Alpha, t: cfg.T, nb: cfg.NB}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := svd.RandSVDOp(op, cfg.K/2, 4, rng, cfg.NB)
	xf := res.U.Clone()
	xb := res.V.Clone()
	for j, s := range res.S {
		r := math.Sqrt(s)
		for i := 0; i < xf.Rows; i++ {
			xf.Set(i, j, xf.At(i, j)*r)
		}
		for i := 0; i < xb.Rows; i++ {
			xb.Set(i, j, xb.At(i, j)*r)
		}
	}
	return &NRPEmbedding{Xf: xf, Xb: xb}
}

// Directed returns the directed link score Xf[u]·Xb[v].
func (e *NRPEmbedding) Directed(u, v int) float64 {
	return mat.Dot(e.Xf.Row(u), e.Xb.Row(v))
}

// Undirected returns p(u,v) + p(v,u).
func (e *NRPEmbedding) Undirected(u, v int) float64 {
	return e.Directed(u, v) + e.Directed(v, u)
}

// Features returns normalized concat(Xf, Xb) for node classification, the
// same protocol PANE uses (§5.4).
func (e *NRPEmbedding) Features() *mat.Dense {
	n, half := e.Xf.Rows, e.Xf.Cols
	out := mat.New(n, 2*half)
	for v := 0; v < n; v++ {
		row := out.Row(v)
		copyUnit(row[:half], e.Xf.Row(v))
		copyUnit(row[half:], e.Xb.Row(v))
	}
	return out
}

func copyUnit(dst, src []float64) {
	n := mat.Norm2(src)
	if n == 0 {
		copy(dst, src)
		return
	}
	inv := 1 / n
	for i, v := range src {
		dst[i] = v * inv
	}
}
