package core

import (
	"fmt"
	"math/rand"
	"time"

	"pane/internal/graph"
	"pane/internal/mat"
	"pane/internal/svd"
)

// checkGraph rejects inputs PANE cannot embed: the affinity model needs
// at least one attribute association to seed the walks.
func checkGraph(g *graph.Graph) error {
	if g.D == 0 || g.NNZAttr() == 0 {
		return fmt.Errorf("core: graph has no node-attribute associations; PANE's affinity model is undefined without attributes")
	}
	return nil
}

// PANE (Algorithm 1) computes attributed network embeddings for g with a
// single thread: APMI for the affinity matrices, then SVDCCD (greedy
// initialization + CCD refinement). cfg.Threads is ignored.
func PANE(g *graph.Graph, cfg Config) (*Embedding, error) {
	cfg.Threads = 1
	e, _, err := Train(g, cfg)
	return e, err
}

// ParallelPANE (Algorithm 5) computes the same embeddings using
// cfg.Threads workers in every phase: PAPMI, SMGreedyInit, and the
// block-parallel CCD sweeps of PSVDCCD.
func ParallelPANE(g *graph.Graph, cfg Config) (*Embedding, error) {
	e, _, err := Train(g, cfg)
	return e, err
}

// Train is ParallelPANE that also says where the time went. With
// cfg.Threads <= 1 every phase takes its serial form, which is PANE.
func Train(g *graph.Graph, cfg Config) (*Embedding, Timing, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Timing{}, err
	}
	if err := checkGraph(g); err != nil {
		return nil, Timing{}, err
	}
	nb := cfg.Threads
	if nb < 1 {
		nb = 1
	}
	start := time.Now()
	f, b := AffinityFromGraph(g, cfg.Alpha, cfg.Iterations(), nb)
	affinity := time.Since(start)
	e, tm := psvdccd(f, b, cfg, nb)
	tm.Affinity = affinity
	return e, tm, nil
}

// Timing is the wall-clock split of one training run, so a slow train
// can be read off a log line instead of a profile. Init and CCD are
// totals; the fields under each are parts of it, and what they leave
// over is the seeds' residual set-up and the sweeps' transposes.
type Timing struct {
	Affinity      time.Duration // APMI / PAPMI
	Init          time.Duration // GreedyInit / SMGreedyInit, of which:
	svd.StageTime               //   Sketch, QR, Project of its randomized SVDs
	CCD           time.Duration // the refinement sweeps, of which:
	CCDNode       time.Duration //   node half-sweeps
	CCDAttr       time.Duration //   attribute half-sweeps
}

// String renders the split on one line, in seconds.
func (t Timing) String() string {
	sec := time.Duration.Seconds
	return fmt.Sprintf("affinity %.2fs | init %.2fs (sketch %.2f, QR %.2f, project+Jacobi %.2f) | CCD %.2fs (node %.2f, attr %.2f)",
		sec(t.Affinity), sec(t.Init), sec(t.Sketch), sec(t.QR), sec(t.Project), sec(t.CCD), sec(t.CCDNode), sec(t.CCDAttr))
}

// SVDCCD (Algorithm 4) jointly factorizes precomputed affinity matrices:
// GreedyInit seeds the embeddings, then cfg.ccdIters() CCD sweeps refine
// them. nb parallelizes the dense products inside the initializer but the
// algorithm structure is the serial one. It takes ownership of f and b:
// they become the solver's residuals in place, so the caller must not
// read them afterwards (clone them first to keep the targets).
func SVDCCD(f, b *mat.Dense, cfg Config, nb int) *Embedding {
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := GreedyInit(f, b, cfg.K, cfg.powerIters(), rng, nb)
	refine(st, cfg.ccdIters(), nb)
	return st.embedding()
}

// PSVDCCD (Algorithm 8) is the parallel joint factorization: the
// split-merge initializer SMGreedyInit followed by node/attribute
// block-parallel CCD sweeps. Like SVDCCD, it takes ownership of f and b.
func PSVDCCD(f, b *mat.Dense, cfg Config, nb int) *Embedding {
	e, _ := psvdccd(f, b, cfg, nb)
	return e
}

func psvdccd(f, b *mat.Dense, cfg Config, nb int) (*Embedding, Timing) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	st := SMGreedyInit(f, b, cfg.K, cfg.powerIters(), rng, nb)
	tm := Timing{Init: time.Since(start), StageTime: st.svdTime}
	start = time.Now()
	tm.CCDNode, tm.CCDAttr = refine(st, cfg.ccdIters(), nb)
	tm.CCD = time.Since(start)
	return st.embedding(), tm
}

// PANERandomInit is the PANE-R ablation of §5.7: identical to PANE except
// that GreedyInit is replaced by random initialization. Used by the
// Figure 7/8 experiments.
func PANERandomInit(g *graph.Graph, cfg Config) (*Embedding, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkGraph(g); err != nil {
		return nil, err
	}
	t := cfg.Iterations()
	f, b := AffinityFromGraph(g, cfg.Alpha, t, 1)
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := RandomInit(f, b, cfg.K, rng, 1)
	refine(st, cfg.ccdIters(), 1)
	return st.embedding(), nil
}
