package engine

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/graph"
	"pane/internal/store"
	"pane/internal/wal"
)

// walUpdate is the deterministic update stream the WAL tests drive:
// alternating edge inserts and attribute bumps on the running example.
func walUpdate(i int) ([]graph.Edge, []graph.AttrEntry) {
	rng := rand.New(rand.NewSource(int64(i)))
	if i%2 == 0 {
		return []graph.Edge{{Src: rng.Intn(6), Dst: rng.Intn(6)}}, nil
	}
	return nil, []graph.AttrEntry{{Node: rng.Intn(6), Attr: rng.Intn(3), Weight: 0.25}}
}

func applyWALUpdate(t *testing.T, eng *Engine, i int) {
	t.Helper()
	edges, attrs := walUpdate(i)
	var err error
	if edges != nil {
		_, err = eng.ApplyEdges(edges)
	} else {
		_, err = eng.ApplyAttrs(attrs)
	}
	if err != nil {
		t.Fatalf("update %d: %v", i, err)
	}
}

// bundleBytes serializes eng's current bundle in memory — state
// comparison without Snapshot's compaction side effect.
func bundleBytes(t *testing.T, eng *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.WriteBundle(&buf, eng.CurrentBundle()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotBytes persists eng and returns the bundle bytes.
func snapshotBytes(t *testing.T, eng *Engine) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.pane")
	if _, err := eng.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// patching returns extra plus the thresholds that put running-example
// updates on the patched update path: a one-edge delta is 2 of its 6 rows,
// past both defaults.
func patching(extra ...Option) []Option {
	return append([]Option{WithRefreshThreshold(1), WithAffinityThreshold(1)}, extra...)
}

// trainBase trains the running example and snapshots its version-1 bundle
// to a file both the golden and crashed runs restore from.
func trainBase(t *testing.T, dir string) string {
	t.Helper()
	eng, err := Train(graph.RunningExample(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "base.pane")
	if _, err := eng.Snapshot(base); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestWALCrashRecovery is the recovery acceptance test: a writer killed
// at ANY record boundary — and at torn mid-record tails — restarts via
// bundle + log replay to a state whose snapshot is byte-identical to
// the uncrashed writer's at the version the log durably reached.
func TestWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	base := trainBase(t, dir)
	const updates = 6

	// Golden run: no crash, snapshot bytes captured at every version.
	golden := map[uint64][]byte{}
	gold, err := Open(base, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	golden[gold.Version()] = snapshotBytes(t, gold)
	for i := 1; i <= updates; i++ {
		applyWALUpdate(t, gold, i)
		golden[gold.Version()] = snapshotBytes(t, gold)
	}

	// Leader run: same updates, write-ahead logged.
	walDir := filepath.Join(dir, "wal")
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := Open(base, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= updates; i++ {
		applyWALUpdate(t, leader, i)
	}
	if !bytes.Equal(snapshotBytes(t, leader), golden[leader.Version()]) {
		t.Fatal("logged and unlogged writers diverge before any crash")
	}
	if as := leader.AffinityStatus(); as.Incremental == 0 {
		t.Fatalf("the writer never patched its affinity state: %+v", as)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Walk the single segment's frames to find every record boundary.
	segs, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (err %v)", segs, err)
	}
	segName := filepath.Base(segs[0])
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	type cut struct {
		off     int64
		version uint64
	}
	cuts := []cut{{0, 1}} // empty log: recovery stays at the base bundle
	br := bufio.NewReader(bytes.NewReader(data))
	for {
		rec, err := wal.ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wal.EncodeFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, cut{cuts[len(cuts)-1].off + int64(len(frame)), rec.Version})
	}
	if int64(len(data)) != cuts[len(cuts)-1].off {
		t.Fatalf("frame walk covered %d of %d bytes", cuts[len(cuts)-1].off, len(data))
	}

	recoverAt := func(prefix []byte) *Engine {
		t.Helper()
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, segName), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(crashDir, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		eng, err := Open(base, patching()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	// SIGKILL at every record boundary.
	for _, c := range cuts {
		eng := recoverAt(data[:c.off])
		if v := eng.Version(); v != c.version {
			t.Fatalf("boundary %d: recovered version %d, want %d", c.off, v, c.version)
		}
		if !bytes.Equal(snapshotBytes(t, eng), golden[c.version]) {
			t.Fatalf("boundary %d: recovered snapshot not byte-identical to uncrashed v%d", c.off, c.version)
		}
	}

	// SIGKILL mid-record: the torn tail truncates back to the previous
	// boundary's state.
	for i := 1; i < len(cuts); i++ {
		mid := (cuts[i-1].off + cuts[i].off) / 2
		eng := recoverAt(data[:mid])
		want := cuts[i-1].version
		if v := eng.Version(); v != want {
			t.Fatalf("torn cut %d: recovered version %d, want %d", mid, v, want)
		}
		if !bytes.Equal(snapshotBytes(t, eng), golden[want]) {
			t.Fatalf("torn cut %d: recovered snapshot not byte-identical to uncrashed v%d", mid, want)
		}
	}

	// A recovered writer keeps accepting (and logging) updates.
	eng := recoverAt(data)
	applyWALUpdate(t, eng, updates+1)
	if v := eng.Version(); v != uint64(updates)+2 {
		t.Fatalf("post-recovery update version %d", v)
	}
	if lv := eng.WAL().LastVersion(); lv != eng.Version() {
		t.Fatalf("post-recovery append missing: log at %d, model at %d", lv, eng.Version())
	}
}

// TestSnapshotCompactionRace pins the compaction-watermark interleaving:
// a bundle assembled at version V while updates race ahead must anchor
// compaction at V — its own recorded version — so the records between V
// and the live version stay replayable.
func TestSnapshotCompactionRace(t *testing.T) {
	dir := t.TempDir()
	base := trainBase(t, dir)
	walDir := filepath.Join(dir, "wal")
	// One segment per record, so every watermark choice is visible in
	// which segment files survive.
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncNone, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := Open(base, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(log); err != nil {
		t.Fatal(err)
	}

	// Deterministic interleaving: the bundle captures version 4, the
	// model advances to 8, and only then does the snapshot's compaction
	// run. Records 5..8 are covered by no bundle and must survive.
	for i := 1; i <= 3; i++ {
		applyWALUpdate(t, leader, i)
	}
	b := leader.CurrentBundle()
	if b.ModelVersion != 4 {
		t.Fatalf("bundle at version %d, want 4", b.ModelVersion)
	}
	for i := 4; i <= 7; i++ {
		applyWALUpdate(t, leader, i)
	}
	if err := leader.compactAfterSnapshot(b); err != nil {
		t.Fatal(err)
	}
	first, last, ok := log.Bounds()
	if !ok || first != 5 || last != 8 {
		t.Fatalf("log bounds after raced compaction = %d..%d (ok=%v), want 5..8", first, last, ok)
	}
	// The raced bundle + surviving log must recover to the live state.
	snap := filepath.Join(dir, "raced.pane")
	if err := store.SaveBundleFile(snap, b); err != nil {
		t.Fatal(err)
	}
	check, err := Open(snap, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	checkLog, err := wal.Open(walDir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.AttachWAL(checkLog); err != nil {
		t.Fatal(err)
	}
	if check.Version() != 8 {
		t.Fatalf("recovered version %d, want 8", check.Version())
	}
	// Compare serialized bundles in memory: snapshotting `check` would
	// compact through checkLog, which shares walDir with the live log.
	if !bytes.Equal(bundleBytes(t, check), bundleBytes(t, leader)) {
		t.Fatal("recovery from raced snapshot diverges from the live writer")
	}
	checkLog.Close()

	// Now the live interleaving: snapshots (each compacting) racing a
	// writer. Afterwards the newest snapshot plus the surviving log must
	// still reach the writer's final version — the invariant a live-
	// version watermark breaks.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 8; i < 28; i++ {
			applyWALUpdate(t, leader, i)
		}
	}()
	lastSnap := filepath.Join(dir, "live.pane")
	for i := 0; i < 6; i++ {
		if _, err := leader.Snapshot(lastSnap); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if _, err := leader.Snapshot(lastSnap); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := Open(lastSnap, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	finalLog, err := wal.Open(walDir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer finalLog.Close()
	if err := final.AttachWAL(finalLog); err != nil {
		t.Fatal(err)
	}
	if final.Version() != leader.Version() {
		t.Fatalf("recovered version %d, want %d", final.Version(), leader.Version())
	}
}

func TestAttachWALEdgeCases(t *testing.T) {
	dir := t.TempDir()
	base := trainBase(t, dir)

	// A log whose records all predate the bundle is reset, and the next
	// update extends the bundle's version.
	behind, err := wal.Open(filepath.Join(dir, "behind"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer behind.Close()
	leader, err := Open(base, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.AttachWAL(behind); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		applyWALUpdate(t, leader, i)
	}
	snap := filepath.Join(dir, "ahead.pane")
	if _, err := leader.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	// Re-create the "log lost appends the bundle captured" state by
	// dropping the tail records: reset and rewrite records 2..3 only.
	if err := behind.Reset(); err != nil {
		t.Fatal(err)
	}
	for i, v := 1, uint64(2); v <= 3; i, v = i+1, v+1 {
		edges, attrs := walUpdate(i)
		if err := behind.Append(wal.Record{Version: v, Edges: edges, Attrs: attrs}); err != nil {
			t.Fatal(err)
		}
	}
	restarted, err := Open(snap, patching()...) // version 5
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.AttachWAL(behind); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := behind.Bounds(); ok {
		t.Fatal("stale log not reset on attach")
	}
	applyWALUpdate(t, restarted, 5)
	if first, last, _ := behind.Bounds(); first != 6 || last != 6 {
		t.Fatalf("post-reset append bounds %d..%d, want 6..6", first, last)
	}

	// A log starting past version+1 is an unbridgeable gap.
	gapped, err := wal.Open(filepath.Join(dir, "gap"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer gapped.Close()
	if err := gapped.Append(wal.Record{Version: 9, Edges: []graph.Edge{{Src: 0, Dst: 1}}}); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(base, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AttachWAL(gapped); err == nil {
		t.Fatal("gap between bundle and log accepted")
	}

	// Double attach is rejected.
	if err := restarted.AttachWAL(gapped); err == nil {
		t.Fatal("second AttachWAL accepted")
	}
}

func TestWALAppendFailureDoesNotPublish(t *testing.T) {
	dir := t.TempDir()
	base := trainBase(t, dir)
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(base, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	before := eng.Version()
	if _, err := eng.ApplyEdges([]graph.Edge{{Src: 0, Dst: 1}}); err == nil {
		t.Fatal("update published without a durable append")
	}
	if eng.Version() != before {
		t.Fatalf("version advanced to %d past a failed append", eng.Version())
	}
}

func TestLoadBundle(t *testing.T) {
	dir := t.TempDir()
	base := trainBase(t, dir)
	// Identical index configs on both sides: the bit-identity claim is
	// between matching serving paths.
	idx := WithIndex(IndexConfig{IVF: true, NList: 2, NProbe: 2})
	leader, err := Open(base, patching(idx)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		applyWALUpdate(t, leader, i)
	}

	follower, err := Open(base, patching(idx)...)
	if err != nil {
		t.Fatal(err)
	}
	b := leader.CurrentBundle()
	if err := follower.LoadBundle(b); err != nil {
		t.Fatal(err)
	}
	if follower.Version() != leader.Version() {
		t.Fatalf("follower at %d, leader at %d", follower.Version(), leader.Version())
	}
	// The swapped-in model serves indexed queries once the scheduled
	// rebuild lands, bit-identical to the leader's (the follower's full
	// build and the leader's incremental refresh agree byte for byte).
	leader.WaitForIndex()
	follower.WaitForIndex()
	for u := 0; u < 6; u++ {
		fa, err := follower.TopLinks(u, 3, ModeExact, 0)
		if err != nil {
			t.Fatal(err)
		}
		la, err := leader.TopLinks(u, 3, ModeExact, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(fa.Results) != len(la.Results) {
			t.Fatalf("node %d: %d vs %d results", u, len(fa.Results), len(la.Results))
		}
		for i := range fa.Results {
			if fa.Results[i] != la.Results[i] {
				t.Fatalf("node %d result %d: follower %+v != leader %+v", u, i, fa.Results[i], la.Results[i])
			}
		}
	}

	// Stale or non-advancing bundles are rejected.
	if err := follower.LoadBundle(b); err == nil {
		t.Fatal("non-advancing bundle accepted")
	}
	// A WAL-attached engine (a leader) refuses wholesale replacement.
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := leader.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	applyWALUpdate(t, leader, 4)
	if err := leader.LoadBundle(leader.CurrentBundle()); err == nil {
		t.Fatal("LoadBundle on a WAL-attached engine accepted")
	}
}

// TestUpdateStagesOneSetOfBooks: the stage times an observer receives in
// UpdateStats are the observations pane_update_stage_duration_seconds
// holds — one stopwatch per stage, read by /metrics, the observer and the
// benchmarks alike — and every stage of a logged edge update is timed.
func TestUpdateStagesOneSetOfBooks(t *testing.T) {
	var got []UpdateStats
	eng := trainTestEngine(t, WithUpdateObserver(func(s UpdateStats) { got = append(got, s) }))
	log, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	const updates = 3
	for i := 0; i < updates; i++ {
		if _, err := eng.ApplyEdges([]graph.Edge{{Src: i, Dst: i + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	var sums [nUpdateStages]float64
	for _, s := range got {
		for st, sec := range [nUpdateStages]float64{s.GraphSeconds, s.WALSeconds, s.AffinitySeconds, s.CCDSeconds, s.ScorerSeconds} {
			// Reusing G takes tens of nanoseconds; a coarse clock may read 0.
			if sec < 0 || (sec == 0 && st != stageScorer) {
				t.Fatalf("update v%d: stage %q not timed: %+v", s.Version, updateStageNames[st], s)
			}
			sums[st] += sec
		}
	}
	for st, h := range eng.met.updStage {
		// The histogram keeps whole nanoseconds per observation.
		if d := h.Sum() - sums[st]; h.Count() != updates || d > 1e-8 || d < -1e-8 {
			t.Fatalf("stage %q: histogram holds %d observations summing to %.9fs, observers saw %d summing to %.9fs",
				updateStageNames[st], h.Count(), h.Sum(), len(got), sums[st])
		}
	}
}

// TestRestartEqualsNeverCrashed holds the spine on the production update
// path: a writer restarted from a mid-stream bundle and its log ends bit
// for bit where the writer that never crashed does. The restarted engine
// replays the records onto an affinity state rebuilt from the bundle's
// graph; the live one patched its state over every update since training.
func TestRestartEqualsNeverCrashed(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{
		Name: "restart", N: 2000, AvgOutDeg: 6, D: 40, AttrsPer: 4, Communities: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	live, err := Train(g, core.Config{K: 16, Alpha: 0.5, Eps: 0.25, Threads: 2, Seed: 3}, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	const updates, snapAt = 60, 20
	snap := filepath.Join(dir, "mid.pane")
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= updates; i++ {
		if i%4 == 0 {
			_, err = live.ApplyAttrs([]graph.AttrEntry{{Node: rng.Intn(g.N), Attr: rng.Intn(g.D), Weight: 0.5}})
		} else {
			_, err = live.ApplyEdges([]graph.Edge{
				{Src: rng.Intn(g.N), Dst: rng.Intn(g.N)}, {Src: rng.Intn(g.N), Dst: rng.Intn(g.N)},
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if i == snapAt {
			if _, err := live.Snapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if as := live.AffinityStatus(); as.Full != 1 || as.Incremental != updates-1 {
		t.Fatalf("live writer affinity passes %+v, want 1 full and %d patched", as, updates-1)
	}

	restarted, err := Open(snap, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	relog, err := wal.Open(walDir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer relog.Close()
	if err := restarted.AttachWAL(relog); err != nil {
		t.Fatal(err)
	}
	if restarted.Version() != live.Version() {
		t.Fatalf("restarted at v%d, live writer at v%d", restarted.Version(), live.Version())
	}
	want, got := live.Model().Emb, restarted.Model().Emb
	differ := 0
	for v := 0; v < g.N; v++ {
		if !slices.Equal(want.Xf.Row(v), got.Xf.Row(v)) || !slices.Equal(want.Xb.Row(v), got.Xb.Row(v)) {
			differ++
		}
	}
	if differ > 0 || !slices.Equal(want.Y.Data, got.Y.Data) {
		t.Fatalf("restart diverges from the never-crashed writer: %d of %d node rows differ, Y equal = %v",
			differ, g.N, slices.Equal(want.Y.Data, got.Y.Data))
	}
}
