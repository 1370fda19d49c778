package ml

import (
	"math"
	"math/rand"
	"testing"

	"pane/internal/mat"
)

// blobs generates two Gaussian clusters labelled true/false.
func blobs(rng *rand.Rand, n, dim int, sep float64) (*mat.Dense, []bool) {
	x := mat.New(n, dim)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		y[i] = i%2 == 0
		off := -sep
		if y[i] {
			off = sep
		}
		for j := 0; j < dim; j++ {
			x.Set(i, j, rng.NormFloat64()+off)
		}
	}
	return x, y
}

func TestSVMSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := blobs(rng, 200, 5, 3)
	m := TrainSVM(x, y, DefaultSVMConfig())
	correct := 0
	for i := 0; i < x.Rows; i++ {
		if m.Predict(x.Row(i)) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(x.Rows); acc < 0.98 {
		t.Fatalf("training accuracy %v on separable data", acc)
	}
}

func TestSVMGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xTrain, yTrain := blobs(rng, 300, 4, 2)
	xTest, yTest := blobs(rng, 200, 4, 2)
	m := TrainSVM(xTrain, yTrain, DefaultSVMConfig())
	correct := 0
	for i := 0; i < xTest.Rows; i++ {
		if m.Predict(xTest.Row(i)) == yTest[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(xTest.Rows); acc < 0.9 {
		t.Fatalf("test accuracy %v", acc)
	}
}

func TestSVMDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := blobs(rng, 100, 3, 1)
	a := TrainSVM(x, y, DefaultSVMConfig())
	b := TrainSVM(x, y, DefaultSVMConfig())
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatal("same seed produced different weights")
		}
	}
}

func TestSVMMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrainSVM(mat.New(3, 2), []bool{true}, DefaultSVMConfig())
}

func TestOneVsRestThreeClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, dim := 300, 4
	x := mat.New(n, dim)
	labels := make([][]int, n)
	centers := [][]float64{{4, 0, 0, 0}, {0, 4, 0, 0}, {0, 0, 4, 0}}
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = []int{c}
		for j := 0; j < dim; j++ {
			x.Set(i, j, rng.NormFloat64()*0.5+centers[c][j])
		}
	}
	ovr := TrainOneVsRest(x, labels, DefaultSVMConfig())
	if len(ovr.Classes) != 3 {
		t.Fatalf("classes = %v", ovr.Classes)
	}
	correct := 0
	for i := 0; i < n; i++ {
		if ovr.PredictTop(x.Row(i)) == labels[i][0] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Fatalf("OVR accuracy %v", acc)
	}
}

func TestOneVsRestPredictK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, dim := 200, 6
	x := mat.New(n, dim)
	labels := make([][]int, n)
	for i := 0; i < n; i++ {
		// Multi-label: classes 0/1 indicated by coordinates 0/1.
		var ls []int
		if rng.Float64() < 0.5 {
			ls = append(ls, 0)
			x.Set(i, 0, 3)
		}
		if rng.Float64() < 0.5 {
			ls = append(ls, 1)
			x.Set(i, 1, 3)
		}
		for j := 2; j < dim; j++ {
			x.Set(i, j, rng.NormFloat64()*0.3)
		}
		labels[i] = ls
	}
	ovr := TrainOneVsRest(x, labels, DefaultSVMConfig())
	hits, total := 0, 0
	for i := 0; i < n; i++ {
		if len(labels[i]) == 0 {
			continue
		}
		pred := ovr.PredictK(x.Row(i), len(labels[i]))
		if len(pred) != len(labels[i]) {
			t.Fatalf("PredictK returned %d labels, want %d", len(pred), len(labels[i]))
		}
		want := map[int]bool{}
		for _, l := range labels[i] {
			want[l] = true
		}
		for _, p := range pred {
			total++
			if want[p] {
				hits++
			}
		}
	}
	if frac := float64(hits) / float64(total); frac < 0.9 {
		t.Fatalf("multi-label hit rate %v", frac)
	}
}

func TestPredictKClampsToClassCount(t *testing.T) {
	x := mat.FromRows([][]float64{{1}, {0}})
	labels := [][]int{{0}, {1}}
	ovr := TrainOneVsRest(x, labels, DefaultSVMConfig())
	if got := ovr.PredictK([]float64{1}, 10); len(got) != 2 {
		t.Fatalf("PredictK(k>classes) len = %d", len(got))
	}
}

// Predict returns Score(x) > 0.
func (s *SVM) Predict(x []float64) bool { return s.Score(x) > 0 }

// PredictTop returns the single best class for x (argmax decision value).
func (o *OneVsRest) PredictTop(x []float64) int {
	best, bestScore := -1, math.Inf(-1)
	for i, m := range o.Models {
		if s := m.Score(x); s > bestScore {
			bestScore = s
			best = o.Classes[i]
		}
	}
	return best
}
