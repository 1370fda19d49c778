package svd

import (
	"math/rand"

	"pane/internal/mat"
)

// Oversample is the extra sketch width used by RandSVD beyond the target
// rank. A handful of extra columns dramatically improves the accuracy of
// the leading singular subspace at negligible cost.
const Oversample = 8

// RandSVD computes an approximate rank-k SVD of a (r x c) using Gaussian
// sketching followed by q power iterations with QR re-orthonormalization
// — simultaneous subspace iteration, the practical variant of the
// randomized block Krylov method of Musco & Musco [30] that Algorithm 3
// cites. rng drives the sketch so results are reproducible.
//
// The procedure:
//  1. Ω ← c x (k+p) Gaussian; Y ← a·Ω; Q ← orth(Y)
//  2. repeat q times: Q ← orth(a·(aᵀ·Q))
//  3. B ← Qᵀ·a  ((k+p) x c, small); exact Jacobi SVD of B
//  4. U ← Q·U_B, truncate to rank k.
//
// nb parallelizes the dense products over row blocks; results for a given
// seed are identical regardless of nb (each output row has one writer).
// It is the DenseOp case of RandSVDOp, which holds the one loop.
func RandSVD(a *mat.Dense, k, q int, rng *rand.Rand, nb int) Result {
	return RandSVDOp(DenseOp{M: a, NB: nb}, k, q, rng, nb)
}
