package main

import "testing"

func TestSelfTimeIsParentMinusCoveredChildren(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", [][2]int64{{10, 40}}, 70},
		{"disjoint children", [][2]int64{{10, 20}, {50, 80}}, 60},
		{"overlapping children count once", [][2]int64{{10, 50}, {30, 70}}, 40},
		{"nested children count once", [][2]int64{{10, 90}, {20, 30}}, 20},
		{"child sticking out is clipped", [][2]int64{{80, 150}}, 80},
		{"child wholly outside", [][2]int64{{120, 150}}, 100},
		{"children cover everything", [][2]int64{{0, 60}, {60, 100}}, 0},
		{"unsorted input", [][2]int64{{50, 80}, {10, 20}}, 60},
	} {
		if got := selfNS(0, 100, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

// A replayed child ran after its parent, on the same input; it counts
// from the parent's start. Fan-out children overlap and count once.
func TestSelfTimesOverASpanTree(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "transport.roundtrip", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "server.ServeHTTP", Start: 100, End: 900},
		{ID: 3, Parent: 2, Name: "engine.TopLinks", Start: 1100, End: 1800, Replayed: true},
		{ID: 4, Parent: 3, Name: "index.SearchSharded", Start: 1900, End: 2500, Replayed: true},
		{ID: 5, Parent: 4, Name: "shard0", Start: 1900, End: 2300},
		{ID: 6, Parent: 4, Name: "shard1", Start: 1950, End: 2400},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 200, 2: 100, 3: 100, 4: 100, 5: 400, 6: 450}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self = %d, want %d", id, self[id], w)
		}
	}
	// The nested chain's self times add up to the round trip.
	if sum := self[1] + self[2] + self[3] + self[4] + 500; sum != 1000 {
		t.Errorf("chain sums to %d, want the round trip's 1000", sum)
	}
	// A replay that ran longer than its parent is clipped to it.
	long := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 200, End: 400, Replayed: true},
	}
	if s := selfTimes(long); s[1] != 0 {
		t.Errorf("parent of an over-long replay: self = %d, want 0", s[1])
	}
}
