package replica

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"pane/internal/core"
	"pane/internal/engine"
	"pane/internal/graph"
	"pane/internal/server"
	"pane/internal/wal"
)

// leaderOpts is the engine configuration both sides run: the patched
// update path (a one-edge delta is 2 of the running example's 6 rows, past
// both default thresholds) plus a small IVF index, so convergence is
// checked all the way down to the serving backends.
func leaderOpts() []engine.Option {
	return []engine.Option{
		engine.WithRefreshThreshold(1),
		engine.WithAffinityThreshold(1),
		engine.WithIndex(engine.IndexConfig{IVF: true, NList: 2, NProbe: 2}),
	}
}

// startLeader trains a WAL-attached leader and serves it over HTTP.
func startLeader(t *testing.T, walOpts wal.Options, srvOpts ...server.Option) (*engine.Engine, *wal.Log, *httptest.Server) {
	t.Helper()
	eng, err := engine.Train(graph.RunningExample(), core.Config{K: 4, Alpha: 0.15, Eps: 0.05, Seed: 1}, leaderOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(t.TempDir(), walOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(eng, srvOpts...))
	t.Cleanup(ts.Close)
	return eng, log, ts
}

func applyLeaderUpdate(t *testing.T, eng *engine.Engine, i int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(i)))
	var err error
	if i%2 == 0 {
		_, err = eng.ApplyEdges([]graph.Edge{{Src: rng.Intn(6), Dst: rng.Intn(6)}})
	} else {
		_, err = eng.ApplyAttrs([]graph.AttrEntry{{Node: rng.Intn(6), Attr: rng.Intn(3), Weight: 0.25}})
	}
	if err != nil {
		t.Fatalf("update %d: %v", i, err)
	}
}

// assertBitIdenticalTopK compares every node's top-k on both engines
// across the exact and IVF backends — the acceptance bar is equality,
// not approximate recall.
func assertBitIdenticalTopK(t *testing.T, leader, follower *engine.Engine) {
	t.Helper()
	leader.WaitForIndex()
	follower.WaitForIndex()
	for _, mode := range []string{engine.ModeExact, engine.ModeIVF} {
		for u := 0; u < 6; u++ {
			la, err := leader.TopLinks(u, 4, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			fa, err := follower.TopLinks(u, 4, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if la.Version != fa.Version {
				t.Fatalf("mode %s node %d: leader v%d vs follower v%d", mode, u, la.Version, fa.Version)
			}
			if len(la.Results) != len(fa.Results) {
				t.Fatalf("mode %s node %d: %d vs %d results", mode, u, len(la.Results), len(fa.Results))
			}
			for i := range la.Results {
				if la.Results[i] != fa.Results[i] {
					t.Fatalf("mode %s node %d rank %d: leader %+v != follower %+v",
						mode, u, i, la.Results[i], fa.Results[i])
				}
			}
		}
		for v := 0; v < 3; v++ {
			la, err := leader.TopAttrs(v, 3, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			fa, err := follower.TopAttrs(v, 3, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range la.Results {
				if la.Results[i] != fa.Results[i] {
					t.Fatalf("mode %s attr-query %d rank %d: leader %+v != follower %+v",
						mode, v, i, la.Results[i], fa.Results[i])
				}
			}
		}
	}
}

// TestFollowerConvergenceRace is the replication acceptance test: one
// leader and two followers in one process, followers tailing while the
// leader applies a live update stream. Under -race this doubles as the
// proof that the replication path holds no torn state. Both followers
// must reach the leader's final version with bit-identical top-k.
func TestFollowerConvergenceRace(t *testing.T) {
	leader, _, ts := startLeader(t, wal.Options{Sync: wal.SyncNone})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const followers = 2
	reps := make([]*Replica, followers)
	for i := range reps {
		r, err := Bootstrap(ctx, Options{Leader: ts.URL, Poll: 2 * time.Millisecond}, leaderOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
		go r.Run(ctx)
	}

	const updates = 24
	for i := 1; i <= updates; i++ {
		applyLeaderUpdate(t, leader, i)
	}
	want := leader.Version()
	if want != updates+1 {
		t.Fatalf("leader at %d", want)
	}

	deadline := time.Now().Add(30 * time.Second)
	for _, r := range reps {
		for r.Engine().Version() != want {
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at %d, leader at %d (status %+v)",
					r.Engine().Version(), want, r.Status())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	cancel()

	for i, r := range reps {
		assertBitIdenticalTopK(t, leader, r.Engine())
		st := r.Status()
		if st.AppliedVersion != want || st.LagRecords != 0 {
			t.Fatalf("follower %d status: %+v", i, st)
		}
		if st.RecordsApplied == 0 {
			t.Fatalf("follower %d applied no records: %+v", i, st)
		}
	}
}

// TestFollowerBundleFallbackAfterCompaction: a follower whose position
// the leader already compacted away gets 410 and must converge through
// a bundle fetch.
func TestFollowerBundleFallbackAfterCompaction(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snap.pane")
	leader, _, ts := startLeader(t, wal.Options{Sync: wal.SyncNone, SegmentBytes: 1})
	ctx := context.Background()

	r, err := Bootstrap(ctx, Options{Leader: ts.URL}, leaderOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		applyLeaderUpdate(t, leader, i)
	}
	// The snapshot compacts every sealed segment below its version; the
	// follower's from=1 position is gone.
	if _, err := leader.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := r.Engine().Version(); got != leader.Version() {
		t.Fatalf("follower at %d after fallback, leader at %d", got, leader.Version())
	}
	st := r.Status()
	if st.BundleFetches != 1 {
		t.Fatalf("bundle fetches = %d, want 1 (status %+v)", st.BundleFetches, st)
	}
	assertBitIdenticalTopK(t, leader, r.Engine())
}

// TestFollowerLagThresholdFallback: a backlog past LagFallback switches
// from record replay to a bundle fetch even when records are available.
func TestFollowerLagThresholdFallback(t *testing.T) {
	leader, _, ts := startLeader(t, wal.Options{Sync: wal.SyncNone})
	ctx := context.Background()

	// BatchMax 1 + LagFallback 2: the first sync applies one record,
	// sees itself still >2 behind, and jumps to the bundle.
	r, err := Bootstrap(ctx, Options{Leader: ts.URL, BatchMax: 1, LagFallback: 2}, leaderOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		applyLeaderUpdate(t, leader, i)
	}
	applied, err := r.SyncOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("applied %d records, want 1", applied)
	}
	if got := r.Engine().Version(); got != leader.Version() {
		t.Fatalf("follower at %d, leader at %d", got, leader.Version())
	}
	if st := r.Status(); st.BundleFetches != 1 {
		t.Fatalf("bundle fetches = %d, want 1", st.BundleFetches)
	}
}

func TestBootstrapValidation(t *testing.T) {
	if _, err := Bootstrap(context.Background(), Options{}); err == nil {
		t.Fatal("empty leader URL accepted")
	}
	if _, err := Bootstrap(context.Background(), Options{Leader: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable leader accepted")
	}
}
