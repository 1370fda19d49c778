package main

import (
	"bytes"
	"testing"
	"time"
)

// Same seed, byte-identical requests and schedule; another seed, another
// sequence. The server sees nothing of the seed but this.
func TestOpsAreDeterministicInTheSeed(t *testing.T) {
	const n = 5000
	for _, w := range workloadNames {
		a := encodeOps(newOpGen(w, 7, streamLeaderReads, n).take(200))
		b := encodeOps(newOpGen(w, 7, streamLeaderReads, n).take(200))
		c := encodeOps(newOpGen(w, 8, streamLeaderReads, n).take(200))
		other := encodeOps(newOpGen(w, 7, streamFollowerReads, n).take(200))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different ops", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same ops", w)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: two connections of one seed sent the same ops", w)
		}
	}
}

func TestMixedPlanIsDeterministicAndOnSchedule(t *testing.T) {
	plan := func(seed int64) []byte {
		l, f, w := mixedPlan(seed, 5000, 3*time.Second, 100, 4)
		return bytes.Join([][]byte{encodeEvents(l), encodeEvents(f), encodeEvents(w)}, []byte("--\n"))
	}
	if !bytes.Equal(plan(3), plan(3)) {
		t.Error("same seed gave different schedules")
	}
	if bytes.Equal(plan(3), plan(4)) {
		t.Error("seeds 3 and 4 gave the same schedule")
	}
	l, f, w := mixedPlan(3, 5000, 3*time.Second, 100, 4)
	if len(l) != 150 || len(f) != 150 || len(w) != 12 {
		t.Fatalf("3 s at 100 reads/s and 4 writes/s: %d + %d reads, %d writes", len(l), len(f), len(w))
	}
	if l[1].due-l[0].due != 20*time.Millisecond || f[0].due != 10*time.Millisecond {
		t.Errorf("reads do not alternate on a 10 ms grid: leader %v %v, follower %v", l[0].due, l[1].due, f[0].due)
	}
	if w[0].due != 125*time.Millisecond || w[1].due-w[0].due != 250*time.Millisecond {
		t.Errorf("writes are not half a period off the grid: %v %v", w[0].due, w[1].due)
	}
	for _, ev := range w {
		for _, e := range ev.op.edges {
			if e.Src == e.Dst || e.Src < 0 || e.Src >= 5000 || e.Dst < 0 || e.Dst >= 5000 {
				t.Fatalf("bad edge %+v", e)
			}
		}
	}
}

func TestBatchOpsCarryDistinctSources(t *testing.T) {
	o := newOpGen(wlBatch, 1, 0, 5000).next()
	seen := map[int]bool{}
	for _, u := range o.srcs {
		if seen[u] {
			t.Fatalf("source %d twice in one batch", u)
		}
		seen[u] = true
	}
	if len(o.srcs) != batchSize || o.queries() != batchSize {
		t.Errorf("batch of %d, want %d", len(o.srcs), batchSize)
	}
}
