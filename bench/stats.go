package main

import (
	"math"
	"sort"
)

// tailLadder is the set of tail percentiles a run may report, highest
// first. A fixed ladder (instead of the continuous 1 − 10/n) keeps the
// reported percentile from drifting when a faster or slower system
// completes a few more or fewer requests in the same window.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the figure is the reading of a handful of
// outliers, not of the distribution.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples beyond it. With fewer than 2·minBeyond
// samples there is no tail to report and the median stands in for it.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// The epsilon keeps 1000·(1−0.99) = 10.000000000000009 and its
		// mirror image 9.999999999999998 on the same side.
		if float64(n)*(1-p)+1e-9 >= minBeyond {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// percentile returns the nearest-rank p-quantile of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of v (mean of the two middle values for
// an even count) without reordering the caller's slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method) so that the spread this harness prints is the one
// the acceptance rule is stated in. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relIQR is the inter-quartile range of v as a share of its median — the
// run-to-run spread every bound in BENCHMARK.json is compared against.
func relIQR(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	med := median(v)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// timed is one completed request as the summaries see it: when it was
// issued and when it finished (seconds into the measured window; its
// latency is the difference) and how many queries it carried.
type timed struct {
	start, done float64
	queries     int
}

func (t timed) ms() float64 { return (t.done - t.start) * 1e3 }

// slice is one short stretch of the measured window together with the
// share of the machine's CPU time the host took away during it.
type slice struct {
	from, to float64 // seconds into the window
	steal    float64
}

// windowSummary is the latency/throughput reading of one measured window.
// The gated figures (PerSec, P50) are read off the slices of the window
// the host left alone; the whole window's figures stand beside them so
// that nothing a discarded slice held is lost from the report, and the
// tail — where a stall of the program's own would show — is always the
// whole window's.
type windowSummary struct {
	PerSec    float64 // queries per second of kept time
	P50       float64 // ms, requests that ran entirely inside kept slices
	KeptShare float64 // share of the window's slices kept
	KeptSteal float64 // share of CPU time the host took during the kept slices

	WindowPerSec float64 // queries per second of the whole window
	WindowP50    float64 // ms, every request
	Tail         float64 // ms at TailP, every request
	TailP        float64 // the ladder percentile the window's samples support
	Samples      int     // requests in the window
}

const (
	// sliceLen is how finely the window is cut: 200 ms is long enough for
	// /proc/stat's 10 ms ticks to say what happened in a slice, and short
	// enough that a busy minute of the host's still leaves slices it did
	// not touch.
	sliceLen = 0.2
	// keepShare is the least share of slices a summary uses, however
	// noisy they all are. (Over ten seeds on a moderately busy host the
	// run-to-run inter-quartile range of qps was 5.8, 6.9 and 4.1 % of
	// the median on read_flat, read_ivf and batch with a quarter, 7.6, 8.7
	// and 5.1 % with 0.4, and 20.5, 12.9 and 9.8 % over the whole window.)
	keepShare = 0.25
	// cleanSteal is the steal share at or below which a slice counts as
	// undisturbed and is always kept: one tick of a 200 ms, 2-CPU slice.
	cleanSteal = 0.03
)

// keepClean marks the slices a summary counts: every slice the host left
// alone, and otherwise the cleanest keepShare of them. On a quiet machine
// that is the whole window; on a contended one the figures describe the
// program during the stretches the machine was its own. The choice looks
// only at what the host did (/proc/stat's steal column), never at how the
// program fared.
func keepClean(slices []slice) []bool {
	steals := make([]float64, len(slices))
	for i, s := range slices {
		steals[i] = s.steal
	}
	sort.Float64s(steals)
	limit := cleanSteal
	if n := len(steals); n > 0 {
		if q := steals[int(math.Ceil(keepShare*float64(n)))-1]; q > limit {
			limit = q
		}
	}
	keep := make([]bool, len(slices))
	for i, s := range slices {
		keep[i] = s.steal <= limit
	}
	return keep
}

// summarize reads rate and latency off a window of the given length. A
// request counts towards the kept rate if it completed in a kept slice,
// and towards the kept median if every slice it touched was kept (so a
// wait that began in a disturbed slice does not leak into a quiet one).
func summarize(samples []timed, slices []slice, window float64) windowSummary {
	var sum windowSummary
	keep := keepClean(slices)
	// A slice holds the requests that start in [from, to) and the ones that
	// end in (from, to]: an update that is its own slice ends on its edge.
	in := func(i int, t float64) int {
		if i == len(slices) || t < slices[i].from {
			return -1
		}
		return i
	}
	startsIn := func(t float64) int {
		return in(sort.Search(len(slices), func(i int) bool { return slices[i].to > t }), t)
	}
	endsIn := func(t float64) int {
		return in(sort.Search(len(slices), func(i int) bool { return slices[i].to >= t }), t)
	}
	keptTime, kept := 0.0, 0
	for i, s := range slices {
		if keep[i] {
			keptTime += s.to - s.from
			sum.KeptSteal += s.steal * (s.to - s.from)
			kept++
		}
	}
	if keptTime > 0 {
		sum.KeptShare = float64(kept) / float64(len(slices))
		sum.KeptSteal /= keptTime
	}
	var all, quiet []float64
	queries, keptQueries := 0, 0
	for _, s := range samples {
		all = append(all, s.ms())
		queries += s.queries
		j := endsIn(s.done)
		if j < 0 || !keep[j] {
			continue
		}
		keptQueries += s.queries
		i := startsIn(s.start)
		clean := i >= 0
		for k := i; clean && k < j; k++ {
			clean = keep[k]
		}
		if clean {
			quiet = append(quiet, s.ms())
		}
	}
	sort.Float64s(all)
	sort.Float64s(quiet)
	sum.Samples = len(all)
	sum.TailP = tailPercentile(len(all))
	sum.WindowP50, sum.Tail = percentile(all, 0.5), percentile(all, sum.TailP)
	sum.P50 = percentile(quiet, 0.5)
	if len(quiet) == 0 {
		sum.P50 = sum.WindowP50 // every request straddled a disturbed slice
	}
	if window > 0 {
		sum.WindowPerSec = float64(queries) / window
	}
	if keptTime > 0 {
		sum.PerSec = float64(keptQueries) / keptTime
	}
	return sum
}
