package obs

import (
	"math"
	"testing"
	"time"
)

// bucketUpperSeconds is a latency histogram's bucket bound, in seconds.
func bucketUpperSeconds(i int) float64 { return NewHistogram().upper(i) }

// TestBucketBoundaries is the boundary property test: a duration exactly
// on a power-of-two boundary lands in the bucket whose upper bound IS
// that boundary (le is inclusive), and one nanosecond more lands in the
// next bucket up.
func TestBucketBoundaries(t *testing.T) {
	for e := minBucketExp; e <= maxBucketExp; e++ {
		ns := int64(1) << e
		i := bucketIndex(ns)
		if got := bucketUpperSeconds(i); got != float64(ns)/1e9 {
			t.Fatalf("2^%d ns landed in bucket %d (le=%v), want le=%v", e, i, got, float64(ns)/1e9)
		}
		j := bucketIndex(ns + 1)
		if e == maxBucketExp {
			if j != numBuckets-1 {
				t.Fatalf("2^%d+1 ns landed in bucket %d, want the +Inf bucket %d", e, j, numBuckets-1)
			}
		} else if j != i+1 {
			t.Fatalf("2^%d+1 ns landed in bucket %d, want %d", e, j, i+1)
		}
	}
	// Below the first boundary everything collapses into bucket 0.
	for _, ns := range []int64{0, 1, 1023, 1024} {
		if i := bucketIndex(ns); i != 0 {
			t.Fatalf("%d ns landed in bucket %d, want 0", ns, i)
		}
	}
	if !math.IsInf(bucketUpperSeconds(numBuckets-1), 1) {
		t.Fatal("last bucket upper bound is not +Inf")
	}
}

// TestObserveCountConsistency checks the invariant the exposition relies
// on: the per-bucket counts sum to the observation count, and every
// cumulative prefix is monotone.
func TestObserveCountConsistency(t *testing.T) {
	h := NewHistogram()
	const n = 10000
	for i := 0; i < n; i++ {
		// Spread across several decades, including sub-boundary and
		// beyond-last-boundary extremes.
		h.Observe(time.Duration(int64(i)*int64(i)) * time.Nanosecond)
	}
	h.Observe(30 * time.Second) // +Inf bucket
	h.Observe(-time.Second)     // clamps to 0, must still count
	b, total := h.snapshot()
	if total != n+2 {
		t.Fatalf("bucket total %d, want %d", total, n+2)
	}
	if h.Count() != n+2 {
		t.Fatalf("count %d, want %d", h.Count(), n+2)
	}
	var cum, prev uint64
	for i := range b {
		cum += b[i]
		if cum < prev {
			t.Fatalf("cumulative count decreased at bucket %d", i)
		}
		prev = cum
	}
	if cum != total {
		t.Fatalf("cumulative end %d != total %d", cum, total)
	}
	if h.Sum() < 30 {
		t.Fatalf("sum %.3fs lost the 30s observation", h.Sum())
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram()
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	// 100 observations of ~1ms: every quantile must fall inside the
	// bucket that holds 1ms.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	lo := bucketUpperSeconds(bucketIndex(int64(time.Millisecond)) - 1)
	hi := bucketUpperSeconds(bucketIndex(int64(time.Millisecond)))
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		v := h.Quantile(q)
		if v < lo || v > hi {
			t.Fatalf("q=%v estimate %v outside the 1ms bucket [%v, %v]", q, v, lo, hi)
		}
	}
	// Quantiles are monotone in q once the distribution spans buckets.
	h2 := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h2.Observe(time.Duration(i) * 50 * time.Microsecond)
	}
	prev := -1.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		v := h2.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%v gave %v after %v", q, v, prev)
		}
		prev = v
	}
	// +Inf-bucket observations report the last finite boundary (a floor),
	// never infinity.
	h3 := NewHistogram()
	h3.Observe(time.Hour)
	if v := h3.Quantile(0.99); math.IsInf(v, 1) || v != bucketUpperSeconds(numBuckets-2) {
		t.Fatalf("overflow quantile %v, want the last finite boundary %v", v, bucketUpperSeconds(numBuckets-2))
	}
}

func TestSummaryMs(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 50; i++ {
		h.Observe(2 * time.Millisecond)
	}
	s := h.SummaryMs()
	if s.Count != 50 {
		t.Fatalf("summary count %d, want 50", s.Count)
	}
	// 2ms lands in the (1.048ms, 2.097ms] bucket; all three percentiles
	// must interpolate within it (in milliseconds).
	for _, v := range []float64{s.P50, s.P95, s.P99} {
		if v < 1 || v > 2.1 {
			t.Fatalf("summary percentile %vms implausible for 2ms observations", v)
		}
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("percentiles not ordered: %v %v %v", s.P50, s.P95, s.P99)
	}
}
