// Package ml provides the linear classifiers the evaluation harness needs
// — the paper trains a linear SVM (§5.4, citing Cortes & Vapnik) on
// concatenated embeddings for node classification. The SVM is trained
// with the Pegasos stochastic subgradient method; a one-vs-rest wrapper
// handles multi-class and multi-label targets.
package ml

import (
	"math"
	"math/rand"

	"pane/internal/mat"
)

// SVM is a binary linear classifier w·x + b trained on hinge loss with L2
// regularization.
type SVM struct {
	W []float64
	B float64
}

// SVMConfig controls Pegasos training.
type SVMConfig struct {
	// Lambda is the L2 regularization strength. Default 1e-4.
	Lambda float64
	// Epochs is the number of passes over the training data. Default 20.
	Epochs int
	// Seed drives example shuffling.
	Seed int64
}

// DefaultSVMConfig returns sensible defaults for embedding-sized inputs.
func DefaultSVMConfig() SVMConfig {
	return SVMConfig{Lambda: 1e-4, Epochs: 20, Seed: 1}
}

// TrainSVM fits a binary SVM on rows of x with ±1 targets derived from y
// (true → +1). It implements Pegasos: step size 1/(λ·t) with projection
// implicit in the shrinking update.
func TrainSVM(x *mat.Dense, y []bool, cfg SVMConfig) *SVM {
	if x.Rows != len(y) {
		panic("ml: TrainSVM target length mismatch")
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-4
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 20
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := make([]float64, x.Cols)
	var b float64
	order := make([]int, x.Rows)
	for i := range order {
		order[i] = i
	}
	// Offset the step-size schedule by t0 = 1/λ so the first updates are
	// O(1) instead of O(1/λ) — the usual stabilization of Pegasos.
	t0 := 1 / cfg.Lambda
	t := 1
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			eta := 1 / (cfg.Lambda * (t0 + float64(t)))
			t++
			yi := -1.0
			if y[i] {
				yi = 1.0
			}
			xi := x.Row(i)
			margin := yi * (mat.Dot(w, xi) + b)
			// Shrink.
			scale := 1 - eta*cfg.Lambda
			if scale < 0 {
				scale = 0
			}
			for j := range w {
				w[j] *= scale
			}
			if margin < 1 {
				step := eta * yi
				for j := range w {
					w[j] += step * xi[j]
				}
				b += step
			}
		}
	}
	// Guard against non-finite weights from pathological inputs.
	for j := range w {
		if math.IsNaN(w[j]) || math.IsInf(w[j], 0) {
			w[j] = 0
		}
	}
	return &SVM{W: w, B: b}
}

// Score returns the signed decision value for feature vector x.
func (s *SVM) Score(x []float64) float64 { return mat.Dot(s.W, x) + s.B }

// OneVsRest is a multi-class / multi-label classifier made of one binary
// SVM per class.
type OneVsRest struct {
	Classes []int
	Models  []*SVM
}

// TrainOneVsRest fits one SVM per distinct label appearing in labels,
// where labels[i] is the (possibly empty, possibly multi-) label set of
// row i of x.
func TrainOneVsRest(x *mat.Dense, labels [][]int, cfg SVMConfig) *OneVsRest {
	classSet := map[int]bool{}
	for _, ls := range labels {
		for _, l := range ls {
			classSet[l] = true
		}
	}
	classes := make([]int, 0, len(classSet))
	for l := range classSet {
		classes = append(classes, l)
	}
	// Deterministic class order.
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j-1] > classes[j]; j-- {
			classes[j-1], classes[j] = classes[j], classes[j-1]
		}
	}
	ovr := &OneVsRest{Classes: classes, Models: make([]*SVM, len(classes))}
	for ci, c := range classes {
		y := make([]bool, len(labels))
		for i, ls := range labels {
			for _, l := range ls {
				if l == c {
					y[i] = true
					break
				}
			}
		}
		sub := cfg
		sub.Seed = cfg.Seed + int64(ci)*7919
		ovr.Models[ci] = TrainSVM(x, y, sub)
	}
	return ovr
}

// PredictK returns the k highest-scoring classes for x, in descending
// score order. Multi-label evaluation follows the standard protocol of
// predicting as many labels as the example truly has.
func (o *OneVsRest) PredictK(x []float64, k int) []int {
	type cs struct {
		c int
		s float64
	}
	all := make([]cs, len(o.Models))
	for i, m := range o.Models {
		all[i] = cs{o.Classes[i], m.Score(x)}
	}
	// Partial selection sort: k is tiny.
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].s > all[best].s {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].c
	}
	return out
}
