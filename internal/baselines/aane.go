package baselines

import (
	"math"
	"math/rand"

	"pane/internal/graph"
	"pane/internal/mat"
	"pane/internal/svd"
)

// AANEConfig parameterizes the accelerated attributed network embedding
// baseline.
type AANEConfig struct {
	K      int
	Lambda float64 // strength of the graph-regularization smoothing
	Rounds int     // smoothing/factorization alternations
	Seed   int64
}

// DefaultAANEConfig mirrors the original's moderate regularization.
func DefaultAANEConfig() AANEConfig {
	return AANEConfig{K: 128, Lambda: 0.5, Rounds: 3, Seed: 1}
}

// AANE implements the core of Accelerated Attributed Network Embedding
// [18]: embeddings approximate the *attribute affinity* (cosine
// similarity of attribute vectors) while being smoothed along graph
// edges. The original solves this with distributed ADMM over an n x n
// cosine-similarity matrix; we keep its two ingredients — attribute
// affinity factorization and Laplacian smoothing — but stay O(n·d):
// factorize the L2-normalized attribute matrix (whose Gram matrix IS the
// cosine similarity), then alternate embedding smoothing X ← (1−λ)X +
// λ·P̄X with re-orthonormalization, which is a projected gradient step on
// the graph-regularization term. DESIGN.md records the substitution.
func AANE(g *graph.Graph, cfg AANEConfig) *NodeEmbedding {
	// Row-normalize attribute vectors so inner products are cosines.
	a := g.Attr.ToDense()
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		n := mat.Norm2(row)
		if n > 0 {
			inv := 1 / n
			for j := range row {
				row[j] *= inv
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.K
	if k > g.D {
		k = g.D
	}
	res := svd.RandSVD(a, k, 3, rng, 1)
	x := res.UScaled()
	// Laplacian smoothing rounds: averaging each node with its (in+out)
	// neighborhood mean pulls connected nodes together, the effect of
	// AANE's ‖x_i − x_j‖ penalty over edges.
	p, pt := g.Walk()
	for r := 0; r < cfg.Rounds; r++ {
		fwd := p.MulDense(x)
		bwd := pt.MulDense(x)
		fwd.AddScaled(1, bwd)
		fwd.Scale(0.5 * cfg.Lambda)
		x.Scale(1 - cfg.Lambda)
		x.AddScaled(1, fwd)
	}
	return &NodeEmbedding{X: x}
}

// DeepWalkMFConfig parameterizes the topology-only DeepWalk-as-matrix-
// factorization baseline.
type DeepWalkMFConfig struct {
	K      int
	Window int     // random-walk context window T
	Neg    float64 // negative sampling constant b in the NetMF closed form
	Seed   int64
}

// DefaultDeepWalkMFConfig uses the common window of 10 and one negative
// sample.
func DefaultDeepWalkMFConfig() DeepWalkMFConfig {
	return DeepWalkMFConfig{K: 128, Window: 10, Neg: 1, Seed: 1}
}

// DeepWalkMF embeds nodes by factorizing DeepWalk's implicit matrix (Qiu
// et al., WSDM'18 — reference [33], the result PANE's related work leans
// on): M = log⁺( vol(G)/(b·T) · Σ_{t=1..T} Pᵗ · D⁻¹ ). Representative of
// the random-walk HNE family (DeepWalk/node2vec/LINE) in the comparison,
// with the same O(n²) wall TADW has: M is dense, so it only runs on the
// small datasets — exactly the scalability contrast §6.2 draws.
func DeepWalkMF(g *graph.Graph, cfg DeepWalkMFConfig) *NodeEmbedding {
	n := g.N
	p, _ := g.Walk()
	// Accumulate Σ Pᵗ (dense) once; each extra power is one sparse×dense.
	acc := mat.New(n, n)
	cur := p.ToDense()
	acc.AddScaled(1, cur)
	for t := 1; t < cfg.Window; t++ {
		cur = p.MulDense(cur)
		acc.AddScaled(1, cur)
	}
	// Multiply by D⁻¹ on the right and the NetMF volume constant.
	invDeg := make([]float64, n)
	var vol float64
	for v := 0; v < n; v++ {
		deg := float64(g.OutDegree(v))
		vol += deg
		if deg > 0 {
			invDeg[v] = 1 / deg
		}
	}
	scale := vol / (cfg.Neg * float64(cfg.Window))
	for i := 0; i < n; i++ {
		row := acc.Row(i)
		for j := range row {
			row[j] *= scale * invDeg[j]
		}
	}
	// Truncated log: log(max(x,1)) keeps the PMI matrix sparse-ish and
	// nonnegative, the "log⁺" of NetMF.
	acc.Apply(func(x float64) float64 {
		if x <= 1 {
			return 0
		}
		return math.Log(x)
	})
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.K
	if k > n {
		k = n
	}
	res := svd.RandSVD(acc, k, 3, rng, 1)
	// DeepWalk uses U·Σ^{1/2} as the embedding.
	x := res.U.Clone()
	for j, s := range res.S {
		r := math.Sqrt(s)
		for i := 0; i < x.Rows; i++ {
			x.Set(i, j, x.At(i, j)*r)
		}
	}
	return &NodeEmbedding{X: x}
}
