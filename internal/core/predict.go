package core

import (
	"pane/internal/mat"
)

// AttrScore returns the attribute-inference score of Equation (21):
//
//	p(v, r) = Xf[v]·Y[r]ᵀ + Xb[v]·Y[r]ᵀ ≈ F[v,r] + B[v,r]
func (e *Embedding) AttrScore(v, r int) float64 {
	yr := e.Y.Row(r)
	return mat.Dot(e.Xf.Row(v), yr) + mat.Dot(e.Xb.Row(v), yr)
}

// LinkScorer precomputes the k/2 x k/2 Gram matrix G = YᵀY so that the
// link-prediction score of Equation (22),
//
//	p(u, v) = Σ_r (Xf[u]·Y[r]ᵀ)(Xb[v]·Y[r]ᵀ) = Xf[u]·G·Xb[v]ᵀ,
//
// costs O(k²) per queried pair instead of O(d·k).
type LinkScorer struct {
	e *Embedding
	g *mat.Dense
}

// NewLinkScorer builds the scorer for e.
func NewLinkScorer(e *Embedding) *LinkScorer {
	return &LinkScorer{e: e, g: mat.MulAT(e.Y, e.Y)}
}

// For returns the scorer for e, an update of s's embedding: G depends on
// Y alone, so when the update left Y in place (a node-only delta returns
// it by pointer) s's G is e's, and only otherwise is it recomputed.
func (s *LinkScorer) For(e *Embedding) *LinkScorer {
	if e.Y == s.e.Y {
		return &LinkScorer{e: e, g: s.g}
	}
	return NewLinkScorer(e)
}

// Directed returns p(u, v), the score of the directed edge u → v.
func (s *LinkScorer) Directed(u, v int) float64 {
	xu := s.e.Xf.Row(u)
	xv := s.e.Xb.Row(v)
	var total float64
	half := len(xu)
	for i := 0; i < half; i++ {
		if xu[i] == 0 {
			continue
		}
		gi := s.g.Row(i)
		var acc float64
		for j := 0; j < half; j++ {
			acc += gi[j] * xv[j]
		}
		total += xu[i] * acc
	}
	return total
}

// Undirected returns p(u,v) + p(v,u), the paper's score for undirected
// graphs (§5.3).
func (s *LinkScorer) Undirected(u, v int) float64 {
	return s.Directed(u, v) + s.Directed(v, u)
}

// TransformedCandidates materializes Z = Xb·G (G = YᵀY is symmetric), the
// n x k/2 candidate matrix of the link model: p(u, v) = Xf[u]·Z[v]ᵀ.
// Computing Z once per model version moves the per-query O(k²) transform
// of TopKTargets into an index build step (internal/index), leaving each
// candidate at one O(k/2) dot product with no per-query setup. nb is the
// worker count for the multiply.
func (s *LinkScorer) TransformedCandidates(nb int) *mat.Dense {
	return s.TransformedCandidatesRange(0, s.e.Xb.Rows, nb)
}

// TransformedCandidatesRange materializes rows [lo, hi) of Z = Xb·G — one
// contiguous shard of the candidate matrix. Each output row is computed by
// the same row-owned kernel as the full product, so shard-wise assembly is
// bit-for-bit identical to TransformedCandidates: sharded serving can
// build S independent blocks concurrently without changing any score.
func (s *LinkScorer) TransformedCandidatesRange(lo, hi, nb int) *mat.Dense {
	return s.e.Xb.MulRange(lo, hi, s.g, nb)
}

// TransformedCandidatesRows materializes only the listed rows of Z =
// Xb·G: row j of the result is Z[rows[j]]. Each row is computed by the
// same row-owned kernel as TransformedCandidates (mat.MulRowInto), so a
// recomputed row is bit-for-bit the row a full rebuild would produce —
// which is what lets an incremental index refresh patch Δ rows into a
// previous version's candidate matrix instead of recomputing all n. nb is
// the worker count over the listed rows.
func (s *LinkScorer) TransformedCandidatesRows(rows []int, nb int) *mat.Dense {
	out := mat.New(len(rows), s.g.Cols)
	mat.ParallelRanges(len(rows), mat.RowWorkers(len(rows), nb), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			mat.MulRowInto(out.Row(j), s.e.Xb.Row(rows[j]), s.g)
		}
	})
	return out
}

// AttrQueryInto writes the attribute-inference query vector of node v,
// Xf[v] + Xb[v], into dst (which must have length k/2) and returns it:
// dst·Y[r]ᵀ equals AttrScore(v, r) up to floating-point association, so Y
// itself is the candidate matrix for indexed attribute retrieval.
func (e *Embedding) AttrQueryInto(v int, dst []float64) []float64 {
	xf, xb := e.Xf.Row(v), e.Xb.Row(v)
	for i := range dst {
		dst[i] = xf[i] + xb[i]
	}
	return dst
}

// ClassifierFeatures returns the per-node feature vectors used for node
// classification (§5.4): the forward and backward embeddings of each node
// are L2-normalized independently and concatenated into a length-K vector.
func (e *Embedding) ClassifierFeatures() *mat.Dense {
	n := e.Xf.Rows
	half := e.Xf.Cols
	out := mat.New(n, 2*half)
	for v := 0; v < n; v++ {
		dst := out.Row(v)
		copyNormalized(dst[:half], e.Xf.Row(v))
		copyNormalized(dst[half:], e.Xb.Row(v))
	}
	return out
}

func copyNormalized(dst, src []float64) {
	nrm := mat.Norm2(src)
	if nrm == 0 {
		copy(dst, src)
		return
	}
	inv := 1 / nrm
	for i, v := range src {
		dst[i] = v * inv
	}
}
