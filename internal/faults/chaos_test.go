package faults

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pane/internal/core"
	"pane/internal/engine"
	"pane/internal/graph"
	"pane/internal/replica"
	"pane/internal/server"
	"pane/internal/wal"
)

// The chaos suite runs the whole serving stack — leader, WAL, HTTP
// replication, followers — under injected faults and a leader kill,
// and holds it to the same acceptance bar as the clean-path tests:
// bit-identical convergence, no record accepted from two fencing
// epochs at the same version, and a deposed leader whose appends fail.
//
// CI runs this package with -race -count=2; everything must be
// self-contained and deterministic enough to pass repeatedly.

func chaosEngineOpts() []engine.Option {
	return []engine.Option{
		// A one-edge delta is 2 of the running example's 6 rows: these
		// put every update on the patched path.
		engine.WithRefreshThreshold(1),
		engine.WithAffinityThreshold(1),
		engine.WithIndex(engine.IndexConfig{IVF: true, NList: 2, NProbe: 2}),
	}
}

func trainChaosLeader(t *testing.T) *engine.Engine {
	t.Helper()
	eng, err := engine.Train(graph.RunningExample(),
		core.Config{K: 4, Alpha: 0.15, Eps: 0.05, Seed: 1}, chaosEngineOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func chaosUpdate(t *testing.T, eng *engine.Engine, i int) {
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

// flakyPlan delays a slice of requests and truncates an occasional
// /replicate body mid-frame — enough chaos to exercise the retry and
// torn-stream paths on every run, counted so runs stay reproducible.
func flakyPlan() func(req *http.Request) *Fault {
	var n atomic.Int64
	return func(req *http.Request) *Fault {
		i := n.Add(1)
		switch {
		case i%11 == 3:
			return &Fault{Delay: 2 * time.Millisecond}
		case i%7 == 5 && strings.HasPrefix(req.URL.Path, "/replicate"):
			// Cut inside the stream: whole frames apply, the tail is
			// discarded, the next round resumes.
			return &Fault{TruncateBody: 40}
		}
		return nil
	}
}

func flakyFollowerOpts(leaderURL string) replica.Options {
	return replica.Options{
		Leader:     leaderURL,
		Poll:       time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		Client:     &http.Client{Transport: &Transport{Plan: flakyPlan()}},
	}
}

func waitVersion(t *testing.T, eng *engine.Engine, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for eng.Version() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at version %d, want %d", what, eng.Version(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func assertConverged(t *testing.T, a, b *engine.Engine) {
	t.Helper()
	a.WaitForIndex()
	b.WaitForIndex()
	for _, mode := range []string{engine.ModeExact, engine.ModeIVF} {
		for u := 0; u < 6; u++ {
			ra, err := a.TopLinks(u, 4, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.TopLinks(u, 4, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ra.Version != rb.Version || len(ra.Results) != len(rb.Results) {
				t.Fatalf("mode %s node %d: v%d/%d results vs v%d/%d",
					mode, u, ra.Version, len(ra.Results), rb.Version, len(rb.Results))
			}
			for i := range ra.Results {
				if ra.Results[i] != rb.Results[i] {
					t.Fatalf("mode %s node %d rank %d: %+v != %+v", mode, u, i, ra.Results[i], rb.Results[i])
				}
			}
		}
	}
}

// TestChaosLeaderKillPromotion is the failover acceptance test: a
// leader dies mid-stream with two followers tailing through a faulty
// network; one follower promotes to epoch 1 and takes writes whose
// versions collide with updates the dead leader applied but never
// replicated; the survivor re-points and converges bit-identically,
// and no engine accepts records from both epochs at the same version.
func TestChaosLeaderKillPromotion(t *testing.T) {
	leader := trainChaosLeader(t)
	leaderLog, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer leaderLog.Close()
	if err := leader.AttachWAL(leaderLog); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(leader))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r0, err := replica.Bootstrap(ctx, flakyFollowerOpts(ts.URL), chaosEngineOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := replica.Bootstrap(ctx, flakyFollowerOpts(ts.URL), chaosEngineOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	go r0.Run(ctx)
	go r1.Run(ctx)

	// Live stream through the faulty network: both followers reach v7.
	for i := 1; i <= 6; i++ {
		chaosUpdate(t, leader, i)
	}
	waitVersion(t, r0.Engine(), leader.Version(), "follower 0")
	waitVersion(t, r1.Engine(), leader.Version(), "follower 1")

	// The leader drops off the network, then applies two more updates
	// (v8, v9 on epoch 0) before it dies: with its listener closed first,
	// no follower poll can slip in between and replicate them.
	ts.Close()
	chaosUpdate(t, leader, 7)
	chaosUpdate(t, leader, 8)

	// The orphaned followers degrade: rounds fail, staleness flips on,
	// reads keep serving.
	deadline := time.Now().Add(30 * time.Second)
	for !r0.Stale() {
		if time.Now().After(deadline) {
			t.Fatalf("follower 0 never went stale after leader death (status %+v)", r0.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := r0.Engine().TopLinks(0, 4, engine.ModeExact, 0); err != nil {
		t.Fatalf("stale follower read: %v", err)
	}

	// Failover: r0 promotes at epoch 1 from v7 and takes writes whose
	// versions 8 and 9 collide with the dead leader's unreplicated ones.
	plog, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	epoch, err := r0.Promote(plog)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("promotion epoch = %d, want 1", epoch)
	}
	if r0.Stale() {
		t.Fatal("promoted leader still reports the outage's staleness")
	}
	chaosUpdate(t, r0.Engine(), 107)
	chaosUpdate(t, r0.Engine(), 108)
	if got := r0.Engine().Version(); got != 9 {
		t.Fatalf("promoted leader at v%d, want 9", got)
	}

	// Epoch bookkeeping across the two lineages: the dead leader's log
	// is pure epoch 0, the promoted log pure epoch 1, same version range.
	oldRecs, err := leaderLog.ReadFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range oldRecs {
		if rec.Epoch != 0 {
			t.Fatalf("old lineage record v%d has epoch %d", rec.Version, rec.Epoch)
		}
	}
	newRecs, err := plog.ReadFrom(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(newRecs) != 2 {
		t.Fatalf("promoted log has %d records, want 2", len(newRecs))
	}
	for _, rec := range newRecs {
		if rec.Epoch != 1 {
			t.Fatalf("promoted record v%d has epoch %d, want 1", rec.Version, rec.Epoch)
		}
	}

	// The survivor re-points and converges bit-identically with the
	// promoted lineage — still through the faulty network.
	ts2 := httptest.NewServer(server.New(r0.Engine()))
	defer ts2.Close()
	r1.SetLeader(ts2.URL)
	waitVersion(t, r1.Engine(), r0.Engine().Version(), "survivor")
	if r1.Engine().Epoch() != 1 {
		t.Fatalf("survivor epoch = %d, want 1", r1.Engine().Epoch())
	}
	if as := r1.Engine().AffinityStatus(); as.Incremental == 0 {
		t.Fatalf("survivor never patched its affinity state: %+v", as)
	}
	cancel()
	assertConverged(t, r0.Engine(), r1.Engine())

	// Fencing, both directions. The deposed leader hears about epoch 1
	// and its appends fail for good...
	leader.Fence(epoch)
	if _, err := leader.ApplyEdges([]graph.Edge{{Src: 0, Dst: 1}}); !errors.Is(err, engine.ErrFenced) {
		t.Fatalf("deposed leader append: err = %v, want ErrFenced", err)
	}
	// ...and no engine takes records from both epochs at the same
	// version: an engine on the promoted lineage must refuse a dead-
	// lineage record even when its version would extend the stream.
	stale := oldRecs[len(oldRecs)-1] // dead leader's v9, epoch 0
	if stale.Version != 9 {
		t.Fatalf("old lineage last record v%d, want 9", stale.Version)
	}
	r2, err := replica.Bootstrap(context.Background(),
		replica.Options{Leader: ts2.URL, Poll: time.Millisecond}, chaosEngineOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	// r2 bootstrapped from the promoted bundle (v9, epoch adopted on
	// the next record apply): force the mixed-epoch case directly.
	if r2.Engine().Version() != 9 {
		t.Fatalf("r2 at v%d", r2.Engine().Version())
	}
	chaosUpdate(t, r0.Engine(), 109) // v10 on epoch 1
	if _, err := r2.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r2.Engine().Epoch() != 1 || r2.Engine().Version() != 10 {
		t.Fatalf("r2 after replay: v%d epoch %d, want v10 epoch 1", r2.Engine().Version(), r2.Engine().Epoch())
	}
	forged := stale
	forged.Version = 11 // version extends; epoch is from the dead lineage
	if _, err := r2.Engine().ApplyRecord(forged); !errors.Is(err, engine.ErrFenced) {
		t.Fatalf("epoch-0 record on an epoch-1 engine: err = %v, want ErrFenced", err)
	}
}

// TestChaosFaultyDiskLeader: a leader whose disk tears writes and
// refuses fsyncs mid-stream must fail the affected updates cleanly
// (no version published, no torn state), accept retries, recover its
// exact stream on reopen, and still feed followers to bit-identical
// convergence.
func TestChaosFaultyDiskLeader(t *testing.T) {
	dir := t.TempDir()
	fs := WrapFS(nil)
	leader := trainChaosLeader(t)
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(leader))
	defer ts.Close()

	apply := func(i int) error {
		rng := rand.New(rand.NewSource(int64(i)))
		var err error
		if i%2 == 0 {
			_, err = leader.ApplyEdges([]graph.Edge{{Src: rng.Intn(6), Dst: rng.Intn(6)}})
		} else {
			_, err = leader.ApplyAttrs([]graph.AttrEntry{{Node: rng.Intn(6), Attr: rng.Intn(3), Weight: 0.25}})
		}
		return err
	}

	for i := 1; i <= 8; i++ {
		switch i {
		case 3:
			fs.TearWrites(1)
		case 6:
			fs.FailSyncs(1)
		}
		err := apply(i)
		if i == 3 || i == 6 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("update %d under disk fault: err = %v, want injected", i, err)
			}
			// The failed update was never acked: retry it.
			if err := apply(i); err != nil {
				t.Fatalf("retry of update %d: %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	want := leader.Version()
	if want != 9 {
		t.Fatalf("leader at v%d, want 9 (8 applied updates)", want)
	}
	// The torn write and the refused fsync failed before the affinity
	// stage: only the first update rebuilt the state, every later one
	// patched it.
	if as := leader.AffinityStatus(); as.Full != 1 || as.Incremental != 7 {
		t.Fatalf("leader affinity passes %+v, want 1 full and 7 patched", as)
	}

	// A follower replays the whole stream to bit-identity.
	r, err := replica.Bootstrap(context.Background(),
		replica.Options{Leader: ts.URL, Poll: time.Millisecond}, chaosEngineOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.Engine().Version() != want {
		t.Fatalf("follower at v%d, leader at v%d", r.Engine().Version(), want)
	}
	assertConverged(t, leader, r.Engine())

	// Crash-recovery: reopening the log finds the exact contiguous
	// stream — the rolled-back frames left no trace.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs, err := re.ReadFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("recovered %d records, want 8", len(recs))
	}
	for i, rec := range recs {
		if rec.Version != uint64(i+2) || rec.Epoch != 0 {
			t.Fatalf("recovered record %d: v%d epoch %d", i, rec.Version, rec.Epoch)
		}
	}
}

// TestChaosEpochlessLogCompat: a log written entirely at epoch 0 (the
// PR 8 on-disk format — no epoch words anywhere) must reopen, replay,
// and re-encode byte-identically under the current code.
func TestChaosEpochlessLogCompat(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for v := uint64(1); v <= 5; v++ {
		rec := wal.Record{Version: v, Edges: []graph.Edge{{Src: int(v % 6), Dst: int((v + 1) % 6)}}}
		frame, err := wal.EncodeFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame)
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.LastEpoch(); got != 0 {
		t.Fatalf("epoch-less log reopened at epoch %d", got)
	}
	recs, err := re.ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		frame, err := wal.EncodeFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(frame) != string(want[i]) {
			t.Fatalf("record %d re-encodes differently: % x vs % x", i, frame, want[i])
		}
		if rec.Epoch != 0 {
			t.Fatalf("record %d decoded with epoch %d", i, rec.Epoch)
		}
	}
}
