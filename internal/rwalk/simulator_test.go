// Package rwalk is tests only: a simulator of the forward and backward
// random walks with restart that define node-attribute affinity in §2.2
// of the paper, and the tests that hold APMI (package core) to it. PANE
// itself never samples walks (APMI computes the same quantities in closed
// form); the simulator exists to (a) validate APMI against a ground-truth
// Monte-Carlo estimate and the exact series, (b) regenerate the Table 2
// running example the way the paper did ("using simulated random walks on
// the extended graph"), and (c) serve as an executable specification of
// the affinity model.
package rwalk

import (
	"math/rand"

	"pane/internal/graph"
	"pane/internal/mat"
)

// Simulator samples forward/backward walks on the extended graph of an
// attributed network.
type Simulator struct {
	g     *graph.Graph
	alpha float64

	// outCum[v]/outIdx[v] hold the cumulative out-edge distribution of v
	// (uniform over its out-neighbours).
	// fwdPick[v] holds the cumulative attribute distribution of v.
	// bwdStart[r] holds the cumulative node distribution of attribute r.
	outCum      [][]float64
	outIdx      [][]int32
	fwdPickCum  [][]float64
	fwdPickIdx  [][]int32
	bwdStartCum [][]float64
	bwdStartIdx [][]int32
}

// New builds a simulator for g with stopping probability alpha ∈ (0,1).
func New(g *graph.Graph, alpha float64) *Simulator {
	if alpha <= 0 || alpha >= 1 {
		panic("rwalk: alpha must lie strictly between 0 and 1")
	}
	s := &Simulator{g: g, alpha: alpha}
	s.outCum = make([][]float64, g.N)
	s.outIdx = make([][]int32, g.N)
	for v := 0; v < g.N; v++ {
		cols := g.OutNeighbors(v)
		if len(cols) == 0 {
			continue
		}
		cum := make([]float64, len(cols))
		for i := range cum {
			cum[i] = float64(i+1) / float64(len(cols))
		}
		s.outCum[v] = cum
		s.outIdx[v] = cols
	}
	s.fwdPickCum = make([][]float64, g.N)
	s.fwdPickIdx = make([][]int32, g.N)
	for v := 0; v < g.N; v++ {
		cols, vals := g.NodeAttrs(v)
		if len(cols) == 0 {
			continue
		}
		cum := make([]float64, len(vals))
		var tot float64
		for i, w := range vals {
			tot += w
			cum[i] = tot
		}
		for i := range cum {
			cum[i] /= tot
		}
		s.fwdPickCum[v] = cum
		s.fwdPickIdx[v] = cols
	}
	// Column-wise cumulative distributions for backward starts.
	attrT := g.Attr.T()
	s.bwdStartCum = make([][]float64, g.D)
	s.bwdStartIdx = make([][]int32, g.D)
	for r := 0; r < g.D; r++ {
		cols, vals := attrT.Row(r)
		if len(cols) == 0 {
			continue
		}
		cum := make([]float64, len(vals))
		var tot float64
		for i, w := range vals {
			tot += w
			cum[i] = tot
		}
		for i := range cum {
			cum[i] /= tot
		}
		s.bwdStartCum[r] = cum
		s.bwdStartIdx[r] = cols
	}
	return s
}

func sampleCum(rng *rand.Rand, cum []float64, idx []int32) int32 {
	u := rng.Float64()
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return idx[lo]
}

// walkFrom runs the RWR portion of a walk starting at v and returns the
// terminating node. Walks stranded at dangling nodes terminate there (the
// convention matching APMI's zero rows for dangling nodes).
func (s *Simulator) walkFrom(rng *rand.Rand, v int) int {
	for {
		if rng.Float64() < s.alpha {
			return v
		}
		cum := s.outCum[v]
		if cum == nil {
			return v
		}
		v = int(sampleCum(rng, cum, s.outIdx[v]))
	}
}

// ForwardWalk samples one forward walk from node v: RWR until termination
// at some node vl, then pick one of vl's attributes. Per footnote 1 of the
// paper, if vl carries no attributes the walk restarts from v. The walk
// returns the sampled attribute. maxRestart caps the retries so that
// pathological graphs (no attribute reachable) terminate; it returns -1 in
// that case.
func (s *Simulator) ForwardWalk(rng *rand.Rand, v int, maxRestart int) int {
	for try := 0; try <= maxRestart; try++ {
		vl := s.walkFrom(rng, v)
		if cum := s.fwdPickCum[vl]; cum != nil {
			return int(sampleCum(rng, cum, s.fwdPickIdx[vl]))
		}
	}
	return -1
}

// BackwardWalk samples one backward walk from attribute r: pick a start
// node according to Rc[:, r], then RWR to termination; returns the
// terminal node, or -1 when attribute r has no associated nodes.
func (s *Simulator) BackwardWalk(rng *rand.Rand, r int) int {
	cum := s.bwdStartCum[r]
	if cum == nil {
		return -1
	}
	v := int(sampleCum(rng, cum, s.bwdStartIdx[r]))
	return s.walkFrom(rng, v)
}

// EstimateForward samples nr forward walks from every node and returns the
// empirical estimate of p_f as an n x d matrix whose row v is the
// distribution over attributes reached from v.
func (s *Simulator) EstimateForward(rng *rand.Rand, nr int) *mat.Dense {
	pf := mat.New(s.g.N, s.g.D)
	for v := 0; v < s.g.N; v++ {
		row := pf.Row(v)
		hit := 0
		for i := 0; i < nr; i++ {
			if r := s.ForwardWalk(rng, v, 64); r >= 0 {
				row[r]++
				hit++
			}
		}
		if hit > 0 {
			inv := 1 / float64(hit)
			for j := range row {
				row[j] *= inv
			}
		}
	}
	return pf
}

// EstimateBackward samples nr backward walks from every attribute and
// returns the empirical estimate of p_b as an n x d matrix whose column r
// is the distribution over terminal nodes of walks from attribute r.
func (s *Simulator) EstimateBackward(rng *rand.Rand, nr int) *mat.Dense {
	pb := mat.New(s.g.N, s.g.D)
	for r := 0; r < s.g.D; r++ {
		hit := 0
		for i := 0; i < nr; i++ {
			if v := s.BackwardWalk(rng, r); v >= 0 {
				pb.Set(v, r, pb.At(v, r)+1)
				hit++
			}
		}
		if hit > 0 {
			inv := 1 / float64(hit)
			for v := 0; v < s.g.N; v++ {
				pb.Set(v, r, pb.At(v, r)*inv)
			}
		}
	}
	return pb
}

// Affinities converts Monte-Carlo estimates of p_f and p_b into the SPMI
// forward/backward affinity matrices of Equations (2) and (3):
//
//	F[v,r] = log(n·p_f(v,r)/Σ_h p_f(h,r) + 1)
//	B[v,r] = log(d·p_b(v,r)/Σ_h p_b(v,h) + 1)
func Affinities(pf, pb *mat.Dense) (f, b *mat.Dense) {
	n := float64(pf.Rows)
	d := float64(pb.Cols)
	f = pf.Clone()
	f.NormalizeColumns()
	f.Log1pScaled(n)
	b = pb.Clone()
	b.NormalizeRows()
	b.Log1pScaled(d)
	return f, b
}

// ExactForward computes p_f exactly by dense power iteration — O(n²·t)
// and meant only for small validation graphs. It mirrors Equation (5)
// truncated at machine precision.
func ExactForward(g *graph.Graph, alpha float64) *mat.Dense {
	p, _ := g.Walk()
	rr, _ := g.NormalizedAttrs()
	return exactSeries(p, rr.ToDense(), alpha, g.N)
}

// ExactBackward computes p_b exactly; see ExactForward.
func ExactBackward(g *graph.Graph, alpha float64) *mat.Dense {
	_, pt := g.Walk()
	_, rc := g.NormalizedAttrs()
	return exactSeries(pt, rc.ToDense(), alpha, g.N)
}

func exactSeries(p interface {
	MulDense(*mat.Dense) *mat.Dense
}, seed *mat.Dense, alpha float64, n int) *mat.Dense {
	// Run the series Σ α(1−α)^ℓ P^ℓ seed until the term norm vanishes.
	term := seed.Clone()
	term.Scale(alpha)
	acc := term.Clone()
	for l := 0; l < 10000; l++ {
		nxt := p.MulDense(term)
		nxt.Scale(1 - alpha)
		acc.AddScaled(1, nxt)
		term = nxt
		if term.FrobeniusNorm() < 1e-15 {
			break
		}
	}
	return acc
}
