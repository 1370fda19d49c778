package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90},
		{100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.50}, {20, 0.50}, {3, 0.50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least minBeyond samples lie beyond the
		// reported percentile, and the next ladder step up would not
		// leave that many.
		if p := tailPercentile(c.n); c.n >= 2*minBeyond {
			if beyond := float64(c.n) * (1 - p); beyond+1e-9 < minBeyond {
				t.Errorf("n=%d: p%v leaves only %v beyond", c.n, p*100, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// Values checked against Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 3, 7, 1, 4})
	if q1 != 2 || q2 != 4 || q3 != 8.5 {
		t.Errorf("quartiles = %v %v %v, want 2 4 8.5", q1, q2, q3)
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relIQR(1..10) = %v, want 1", got)
	}
}

// Slices the host disturbed are dropped, and with them every request
// that touched one: a stall that began in a disturbed slice must not show
// up as the tail of the quiet slice it ended in.
func TestSummarizeKeepsCleanSlices(t *testing.T) {
	var slices []slice
	for i := 0; i < 10; i++ {
		s := slice{from: float64(i) * 0.2, to: float64(i+1) * 0.2}
		if i >= 4 {
			s.steal = 0.3 // the second 60 % of the window was disturbed
		}
		slices = append(slices, s)
	}
	var samples []timed
	for i := 0; i < 2000; i++ { // 1 ms requests, back to back
		start := float64(i) * 0.001
		d := 0.001
		if start >= 0.8 {
			d = 0.005 // slow while disturbed
		}
		samples = append(samples, timed{start: start, done: start + d, queries: 1})
	}
	// One request stalls from a clean slice into a disturbed one, and one
	// from a disturbed slice... there is no clean slice after it.
	samples = append(samples, timed{start: 0.79, done: 0.95, queries: 1})
	sum := summarize(samples, slices, 2)
	if sum.KeptShare != 0.4 {
		t.Fatalf("kept %v of the slices, want 0.4", sum.KeptShare)
	}
	if sum.P50 < 0.99 || sum.P50 > 1.01 {
		t.Errorf("p50 %v: disturbed requests leaked into the kept median", sum.P50)
	}
	if math.Abs(sum.PerSec-1000) > 5 {
		t.Errorf("rate %v/s over the kept slices, want 1000", sum.PerSec)
	}
	// The whole window's figures stand beside them, and the tail is read
	// off every request, the disturbed ones included.
	if sum.Samples != 2001 || math.Abs(sum.WindowPerSec-1000.5) > 0.01 || sum.Tail < 4.99 {
		t.Errorf("whole window: %d samples, %v/s, tail %v", sum.Samples, sum.WindowPerSec, sum.Tail)
	}
	// With everything disturbed the cleanest quarter (3 of 10) is still used.
	for i := range slices {
		slices[i].steal = 0.2 + 0.01*float64(i)
	}
	if sum := summarize(samples, slices, 2); sum.KeptShare != 0.3 || sum.P50 == 0 {
		t.Errorf("uniformly noisy window: kept %v, p50 %v", sum.KeptShare, sum.P50)
	}
	// A quiet machine keeps the whole window.
	for i := range slices {
		slices[i].steal = 0.01
	}
	if sum := summarize(samples, slices, 2); sum.KeptShare != 1 || math.Abs(sum.PerSec-sum.WindowPerSec) > 5 {
		t.Errorf("quiet window: kept %v, %v/s against the whole window's %v/s", sum.KeptShare, sum.PerSec, sum.WindowPerSec)
	}
}

// The write probe makes every update a slice of its own; the median is
// read off the ones the host left alone.
func TestSummarizeUpdatesAsTheirOwnSlices(t *testing.T) {
	var acks []timed
	var host []slice
	at := 0.0
	for i := 0; i < 40; i++ {
		d, steal := 0.030, 0.0
		if i%2 == 1 { // every other update lost a tick to the host
			d, steal = 0.045, 0.17
		}
		acks = append(acks, timed{at, at + d, 1})
		host = append(host, slice{at, at + d, steal})
		at += d + 0.005 // the index refresh between two updates
	}
	sum := summarize(acks, host, 0)
	if math.Abs(sum.P50-30) > 1e-6 || sum.KeptShare != 0.5 || sum.Samples != 40 {
		t.Errorf("p50 %v over %v of %d updates, want 30 ms over half of 40", sum.P50, sum.KeptShare, sum.Samples)
	}
	if math.Abs(sum.WindowP50-30) > 1e-6 || sum.TailP != 0.75 || math.Abs(sum.Tail-45) > 1e-6 {
		t.Errorf("all updates: p50 %v, p%v %v", sum.WindowP50, sum.TailP*100, sum.Tail)
	}
}
