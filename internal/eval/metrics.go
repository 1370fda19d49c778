// Package eval implements the evaluation protocol of §5: AUC and average
// precision for attribute inference and link prediction, micro/macro F1
// for node classification, and the train/test splitters the paper
// describes (80/20 attribute-entry split, 30% edge removal with equal
// negative sampling).
package eval

import "sort"

// AUC computes the area under the ROC curve for scores with binary ground
// truth, handling ties by assigning average ranks (the Mann-Whitney
// formulation). It returns 0.5 when either class is empty.
func AUC(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) {
		panic("eval: AUC length mismatch")
	}
	type sl struct {
		s   float64
		pos bool
	}
	items := make([]sl, len(scores))
	nPos, nNeg := 0, 0
	for i, s := range scores {
		items[i] = sl{s, labels[i]}
		if labels[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(items, func(i, j int) bool { return items[i].s < items[j].s })
	// Average ranks over tied groups.
	var rankSumPos float64
	i := 0
	for i < len(items) {
		j := i
		for j < len(items) && items[j].s == items[i].s {
			j++
		}
		avgRank := float64(i+j+1) / 2 // ranks are 1-based: positions i+1..j
		for t := i; t < j; t++ {
			if items[t].pos {
				rankSumPos += avgRank
			}
		}
		i = j
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// AveragePrecision computes AP: the mean of precision values at each
// positive hit when items are ranked by descending score. Ties are broken
// by input order after a stable sort, which is the common implementation
// convention.
func AveragePrecision(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) {
		panic("eval: AP length mismatch")
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	var hits, sumPrec float64
	for rank, id := range idx {
		if labels[id] {
			hits++
			sumPrec += hits / float64(rank+1)
		}
	}
	if hits == 0 {
		return 0
	}
	return sumPrec / hits
}

// F1Counts accumulates per-class true/false positives and false negatives
// for multi-label classification.
type F1Counts struct {
	TP, FP, FN map[int]int
}

// NewF1Counts returns an empty accumulator.
func NewF1Counts() *F1Counts {
	return &F1Counts{TP: map[int]int{}, FP: map[int]int{}, FN: map[int]int{}}
}

// Add records one example's predicted and true label sets.
func (c *F1Counts) Add(pred, truth []int) {
	t := map[int]bool{}
	for _, l := range truth {
		t[l] = true
	}
	p := map[int]bool{}
	for _, l := range pred {
		p[l] = true
	}
	for l := range p {
		if t[l] {
			c.TP[l]++
		} else {
			c.FP[l]++
		}
	}
	for l := range t {
		if !p[l] {
			c.FN[l]++
		}
	}
}

// MicroF1 returns the micro-averaged F1: a single precision/recall over
// all (example, label) decisions pooled together.
func (c *F1Counts) MicroF1() float64 {
	var tp, fp, fn int
	for _, v := range c.TP {
		tp += v
	}
	for _, v := range c.FP {
		fp += v
	}
	for _, v := range c.FN {
		fn += v
	}
	return f1(tp, fp, fn)
}

// MacroF1 returns the macro-averaged F1: the unweighted mean of per-class
// F1 over every class that appears in predictions or truth.
func (c *F1Counts) MacroF1() float64 {
	classes := map[int]bool{}
	for l := range c.TP {
		classes[l] = true
	}
	for l := range c.FP {
		classes[l] = true
	}
	for l := range c.FN {
		classes[l] = true
	}
	if len(classes) == 0 {
		return 0
	}
	var sum float64
	for l := range classes {
		sum += f1(c.TP[l], c.FP[l], c.FN[l])
	}
	return sum / float64(len(classes))
}

func f1(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	return 2 * prec * rec / (prec + rec)
}
