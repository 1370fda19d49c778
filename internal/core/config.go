// Package core implements PANE itself: the APMI/PAPMI affinity
// approximation (Algorithms 2 and 6), the greedy SVD-based initialization
// (Algorithms 3 and 7), the cyclic-coordinate-descent refinement
// (Algorithms 4 and 8), and the end-to-end single-thread and parallel
// drivers (Algorithms 1 and 5) of the paper.
package core

import (
	"fmt"
	"math"
)

// Config collects PANE's hyperparameters. The zero value is not usable;
// the paper's defaults (§5.1) are K 128, Alpha 0.5 and Eps 0.015.
type Config struct {
	// K is the per-node space budget: each node receives a forward and a
	// backward embedding of length K/2, and each attribute an embedding of
	// length K/2. K must be even and >= 2. Paper default: 128.
	K int
	// Alpha is the random-walk stopping probability in (0,1). Paper
	// default: 0.5.
	Alpha float64
	// Eps is the error threshold ε controlling the number of APMI
	// iterations t = ceil(log(ε)/log(1−α) − 1). Paper default: 0.015.
	Eps float64
	// Threads is nb, the number of worker threads for the parallel
	// algorithms. Ignored (treated as 1) by the single-thread driver.
	Threads int
	// CCDIters overrides the number of CCD refinement sweeps; 0 means
	// "use t", the paper's coupling of both loops to the same t.
	CCDIters int
	// PowerIters is the number of subspace power iterations inside
	// RandSVD; 0 means "use t" capped at 3 (subspace iteration converges
	// geometrically — more passes measurably cost, don't measurably help;
	// see BenchmarkAblationRandSVDPowerIters).
	PowerIters int
	// Seed drives the randomized SVD sketch; fixed seeds give
	// reproducible embeddings.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.K < 2 || c.K%2 != 0 {
		return fmt.Errorf("core: K must be an even integer >= 2, got %d", c.K)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("core: Alpha must lie in (0,1), got %v", c.Alpha)
	}
	if c.Eps <= 0 || c.Eps >= 1 {
		return fmt.Errorf("core: Eps must lie in (0,1), got %v", c.Eps)
	}
	if c.Threads < 0 {
		return fmt.Errorf("core: Threads must be >= 0, got %d", c.Threads)
	}
	if c.CCDIters < 0 || c.PowerIters < 0 {
		return fmt.Errorf("core: iteration overrides must be >= 0")
	}
	return nil
}

// Iterations returns t = ceil(log(ε)/log(1−α) − 1), clamped to at least 1
// (Line 1 of Algorithm 1). With α = 0.5 this maps ε ∈ {0.25, …, 0.001} to
// t ∈ {1, …, 9}, matching §5.6's "varying ε from 0.001 to 0.25 corresponds
// to reducing t from 9 to 1".
func (c Config) Iterations() int {
	t := int(math.Ceil(math.Log(c.Eps)/math.Log(1-c.Alpha) - 1))
	if t < 1 {
		t = 1
	}
	return t
}

func (c Config) ccdIters() int {
	if c.CCDIters > 0 {
		return c.CCDIters
	}
	return c.Iterations()
}

func (c Config) powerIters() int {
	if c.PowerIters > 0 {
		return c.PowerIters
	}
	t := c.Iterations()
	if t > 3 {
		t = 3
	}
	return t
}
