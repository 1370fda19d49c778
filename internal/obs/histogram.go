package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: power-of-two nanosecond boundaries from
// 2^minBucketExp ns (~1µs) through 2^maxBucketExp ns (~17.2s), plus a
// final +Inf bucket. 26 buckets total — wide enough to cover a
// microsecond cache-hit scan through a multi-second full rebuild, and
// small enough that a histogram is ~30 atomic words. Boundaries being
// exact powers of two makes Observe a bits.Len64 (one LZCNT), not a
// search.
const (
	minBucketExp = 10 // 2^10 ns = 1.024µs
	maxBucketExp = 34 // 2^34 ns ≈ 17.18s
	// numBuckets includes the +Inf bucket.
	numBuckets = maxBucketExp - minBucketExp + 2
)

// Histogram is a fixed-layout latency histogram with lock-free
// recording: one atomic add on a bucket, one on the sum, one on the
// count. Scrapes read the same atomics without stopping writers, so a
// scrape concurrent with writes may observe a count ahead of the bucket
// it landed in by a few events — exposition re-derives _count from the
// bucket sum so the exposed series stay internally consistent.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	sumNs   atomic.Int64
	count   atomic.Uint64
	// perUnit is how many recorded units make one exposed unit: 1e9 for a
	// latency histogram (nanoseconds in, seconds out), 2^minBucketExp for
	// a count histogram, whose boundaries are therefore 1, 2, 4, … 2^24.
	perUnit float64
}

// NewHistogram returns a histogram usable standalone (benchexp records
// per-query latencies into one without any registry).
func NewHistogram() *Histogram { return &Histogram{perUnit: 1e9} }

// NewCountHistogram returns a histogram of sizes rather than durations
// (queries per batch): the same power-of-two buckets, read as counts.
func NewCountHistogram() *Histogram { return &Histogram{perUnit: 1 << minBucketExp} }

// bucketIndex maps a duration in nanoseconds to its bucket: the first
// bucket whose upper bound 2^(minBucketExp+i) is ≥ ns. Values at or
// below the first boundary land in bucket 0; values above the last
// finite boundary land in the +Inf bucket.
func bucketIndex(ns int64) int {
	if ns <= 1<<minBucketExp {
		return 0
	}
	// bits.Len64(x-1) is ceil(log2(x)) for x ≥ 2.
	i := bits.Len64(uint64(ns-1)) - minBucketExp
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// upper returns bucket i's inclusive upper bound in the histogram's
// exposed unit (seconds, or counts); the last bucket is +Inf.
func (h *Histogram) upper(i int) float64 {
	if i == numBuckets-1 {
		return math.Inf(1)
	}
	return float64(int64(1)<<(minBucketExp+i)) / h.perUnit
}

// Observe records one duration. Negative durations clamp to zero
// (monotonic clock regressions shouldn't corrupt the sum).
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// ObserveCount records one size into a count histogram.
func (h *Histogram) ObserveCount(n int) { h.Observe(time.Duration(n) << minBucketExp) }

// ObserveSeconds records a duration given in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	h.Observe(time.Duration(s * 1e9))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed durations in seconds (of observed
// sizes, for a count histogram).
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / h.perUnit }

// snapshot copies the bucket counts once so quantile math runs on a
// consistent-enough view (each bucket is individually consistent; the
// total is derived from the copied buckets, not the live count).
func (h *Histogram) snapshot() (b [numBuckets]uint64, total uint64) {
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	return b, total
}

// Quantile returns an estimate of the q-th quantile (0 ≤ q ≤ 1) in
// seconds (in counts, for a count histogram), interpolating linearly within the target bucket. Returns 0
// when the histogram is empty. Observations in the +Inf bucket report
// the last finite boundary — the estimate is a floor there, like
// Prometheus's histogram_quantile.
func (h *Histogram) Quantile(q float64) float64 {
	b, total := h.snapshot()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < numBuckets; i++ {
		if b[i] == 0 {
			continue
		}
		prev := cum
		cum += float64(b[i])
		if cum < rank {
			continue
		}
		if i == numBuckets-1 {
			return h.upper(numBuckets - 2)
		}
		lo := 0.0
		if i > 0 {
			lo = h.upper(i - 1)
		}
		hi := h.upper(i)
		frac := 0.0
		if b[i] > 0 {
			frac = (rank - prev) / float64(b[i])
		}
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return h.upper(numBuckets - 2)
}

// LatencySummary is the p50/p95/p99 triple benchexp embeds in its JSON
// reports, in milliseconds so the numbers read naturally next to QPS.
type LatencySummary struct {
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
	Count uint64  `json:"count"`
}

// SummaryMs returns the standard p50/p95/p99 summary in milliseconds.
func (h *Histogram) SummaryMs() LatencySummary {
	return LatencySummary{
		P50:   h.Quantile(0.50) * 1e3,
		P95:   h.Quantile(0.95) * 1e3,
		P99:   h.Quantile(0.99) * 1e3,
		Count: h.Count(),
	}
}
