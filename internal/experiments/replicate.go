package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"time"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/engine"
	"pane/internal/graph"
	"pane/internal/replica"
	"pane/internal/server"
	"pane/internal/wal"
)

// ReplicateOptions configures RunReplicate. Zero values pick the
// defaults noted per field.
type ReplicateOptions struct {
	N       int   // nodes; 0 → 20000
	D       int   // attributes; 0 → 50
	K       int   // space budget; 0 → 64
	Threads int   // 0 → 1
	Seed    int64 // 0 → 1
	// Backlog is the number of leader updates the follower catches up
	// on; 0 → 10000.
	Backlog int
	// BatchEdges is the edge count per update record; 0 → 4.
	BatchEdges int
	// AppendRecords is the record count of each fsync-policy append
	// run; 0 → 2000.
	AppendRecords int
	// Queries is the number of leader-vs-follower top-k spot checks;
	// 0 → 50.
	Queries int
}

// AppendPoint is one fsync policy's append-throughput measurement:
// Records identical WAL records appended back to back through one
// wal.Log configured with that policy.
type AppendPoint struct {
	Policy        string  `json:"policy"`
	Records       int     `json:"records"`
	Seconds       float64 `json:"seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
	MBPerSec      float64 `json:"mb_per_sec"`
}

// ReplicateBench is the report emitted as BENCH_replicate.json by
// `benchexp -exp replicate`: WAL append throughput under each fsync
// policy, and the two ways a follower catches up on a Backlog-record
// leader lead — O(Δ) record replay over /replicate vs fetching the
// leader's bundle — with the crossover backlog at which the bundle
// starts winning.
type ReplicateBench struct {
	N          int `json:"n"`
	Edges      int `json:"edges"`
	D          int `json:"d"`
	K          int `json:"k"`
	Backlog    int `json:"backlog"`
	BatchEdges int `json:"batch_edges"`

	Append []AppendPoint `json:"append"`
	// SyncFreeSpeedup is append throughput without fsync over
	// throughput with fsync-per-record — a same-machine ratio, so
	// runner hardware drops out of the CI gate.
	SyncFreeSpeedup float64 `json:"sync_free_speedup"`

	// Record-replay catch-up: SyncOnce loops until the follower holds
	// the leader's version, index included.
	ReplaySeconds       float64 `json:"replay_seconds"`
	ReplayRecordsPerSec float64 `json:"replay_records_per_sec"`
	// Bundle catch-up: one bootstrap (bundle fetch + engine build +
	// index) against the same leader state.
	SnapshotSeconds float64 `json:"snapshot_seconds"`
	// CrossoverRecords is the backlog size at which per-record replay
	// time equals the bundle fetch: SnapshotSeconds ÷ per-record
	// replay cost. Followers lagging past it should jump to the
	// bundle — the trade -follow-lag encodes.
	CrossoverRecords float64 `json:"crossover_records"`
	// RecallVsLeader is the followers' top-10 link recall against the
	// leader after convergence. The run fails unless both followers'
	// exact top-10 equal the leader's in ids and score bits, so a report
	// always reads 1; the field stays so earlier reports still load.
	RecallVsLeader float64 `json:"recall_vs_leader"`

	// Env is where the run was measured; omitempty so reports written
	// before it existed still load.
	Env *Env `json:"env,omitempty"`
}

// RunReplicate measures the replication tier. Phase one times raw WAL
// appends under each fsync policy on identical record streams. Phase
// two trains a leader, bootstraps a follower at the base version,
// applies Backlog updates on the leader, and times the follower's
// record-by-record catch-up against a bundle bootstrap of (nearly) the
// same lead. The run fails — rather than reporting numbers for a
// broken replica — when the replay path touched the bundle fallback,
// when either follower misses the leader's version, or when either
// follower's exact top-10 differs from the leader's in an id or a score
// bit.
func RunReplicate(opt ReplicateOptions) (*ReplicateBench, error) {
	if opt.N <= 0 {
		opt.N = 20000
	}
	if opt.D <= 0 {
		opt.D = 50
	}
	if opt.K <= 0 {
		opt.K = 64
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Backlog <= 0 {
		opt.Backlog = 10000
	}
	if opt.BatchEdges <= 0 {
		opt.BatchEdges = 4
	}
	if opt.AppendRecords <= 0 {
		opt.AppendRecords = 2000
	}
	if opt.Queries <= 0 {
		opt.Queries = 50
	}
	b := &ReplicateBench{
		N: opt.N, D: opt.D, K: opt.K,
		Backlog: opt.Backlog, BatchEdges: opt.BatchEdges,
		Env: CaptureEnv(),
	}

	// Phase one: append throughput per fsync policy. The same record
	// stream goes through each policy; only the durability barrier
	// differs. Sync/Close stay outside the timed window — the point of
	// the relaxed policies is exactly that they do not pay it per
	// record.
	recs := make([]wal.Record, opt.AppendRecords)
	arng := rand.New(rand.NewSource(opt.Seed))
	var recBytes int
	for i := range recs {
		edges := make([]graph.Edge, opt.BatchEdges)
		for j := range edges {
			edges[j] = graph.Edge{Src: arng.Intn(opt.N), Dst: arng.Intn(opt.N)}
		}
		recs[i] = wal.Record{Version: uint64(i + 1), Edges: edges}
		recBytes += 24 + 8*opt.BatchEdges // frame header + payload
	}
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNone} {
		sec, err := timeAppends(recs, policy)
		if err != nil {
			return nil, err
		}
		b.Append = append(b.Append, AppendPoint{
			Policy:        policy.String(),
			Records:       opt.AppendRecords,
			Seconds:       sec,
			RecordsPerSec: float64(opt.AppendRecords) / sec,
			MBPerSec:      float64(recBytes) / sec / (1 << 20),
		})
	}
	b.SyncFreeSpeedup = b.Append[2].RecordsPerSec / b.Append[0].RecordsPerSec

	// Phase two: follower catch-up. Both sides run the engine's delta
	// path (thresholds 1): the leader applies each batch in O(Δ) and the
	// followers replay the identical records through the same code.
	g, err := datagen.Generate(datagen.Config{
		Name: "replbench", N: opt.N, AvgOutDeg: 8, D: opt.D, AttrsPer: 6,
		Communities: 50, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.Config{K: opt.K, Alpha: 0.5, Eps: 0.25, Threads: opt.Threads, Seed: opt.Seed}
	emb, err := core.ParallelPANE(g, cfg)
	if err != nil {
		return nil, err
	}
	b.Edges = g.M()
	engOpts := []engine.Option{
		engine.WithIndex(engine.IndexConfig{IVF: true, Shards: 2}),
		engine.WithRefreshThreshold(1),
		engine.WithAffinityThreshold(1),
	}
	leader, err := engine.New(g, emb, cfg, engOpts...)
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp("", "pane-replbench-wal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	wlog, err := wal.Open(walDir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return nil, err
	}
	defer wlog.Close()
	if err := leader.AttachWAL(wlog); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(server.New(leader))
	defer ts.Close()
	ctx := context.Background()

	// Bootstrapped before the backlog, so every record must replay;
	// the lag threshold sits far above the backlog to keep the bundle
	// fallback out of the measured path.
	tail, err := replica.Bootstrap(ctx, replica.Options{
		Leader: ts.URL, LagFallback: 1 << 62,
	}, engOpts...)
	if err != nil {
		return nil, err
	}

	urng := rand.New(rand.NewSource(opt.Seed + 2))
	applyBacklog := func(records int) error {
		for i := 0; i < records; i++ {
			edges := make([]graph.Edge, opt.BatchEdges)
			for j := range edges {
				edges[j] = graph.Edge{Src: urng.Intn(g.N), Dst: urng.Intn(g.N)}
			}
			if _, err := leader.ApplyEdges(edges); err != nil {
				return err
			}
		}
		leader.WaitForIndex()
		return nil
	}
	// The bundle follower bootstraps before the backlog's last few
	// records, so it replays them onto an affinity state rebuilt from its
	// bundle's graph while tail patches the one it evolved over the whole
	// backlog: both must end at the leader's bits.
	late := min(replayLate, opt.Backlog)
	if err := applyBacklog(opt.Backlog - late); err != nil {
		return nil, err
	}
	t0 := time.Now()
	boot, err := replica.Bootstrap(ctx, replica.Options{Leader: ts.URL}, engOpts...)
	if err != nil {
		return nil, err
	}
	boot.Engine().WaitForIndex()
	b.SnapshotSeconds = time.Since(t0).Seconds()
	if v, lv := boot.Engine().Version(), leader.Version(); v != lv {
		return nil, fmt.Errorf("experiments: bundle bootstrap landed at version %d, leader at %d", v, lv)
	}
	if err := applyBacklog(late); err != nil {
		return nil, err
	}
	want := leader.Version()

	t0 = time.Now()
	for tail.Engine().Version() < want {
		if _, err := tail.SyncOnce(ctx); err != nil {
			return nil, err
		}
	}
	tail.Engine().WaitForIndex()
	b.ReplaySeconds = time.Since(t0).Seconds()
	b.ReplayRecordsPerSec = float64(opt.Backlog) / b.ReplaySeconds
	st := tail.Status()
	if st.BundleFetches != 0 {
		return nil, fmt.Errorf("experiments: replay catch-up fell back to %d bundle fetches", st.BundleFetches)
	}
	if st.RecordsApplied != uint64(opt.Backlog) {
		return nil, fmt.Errorf("experiments: replay applied %d records, backlog was %d", st.RecordsApplied, opt.Backlog)
	}
	b.CrossoverRecords = b.SnapshotSeconds / (b.ReplaySeconds / float64(opt.Backlog))

	for boot.Engine().Version() < want {
		if _, err := boot.SyncOnce(ctx); err != nil {
			return nil, err
		}
	}
	boot.Engine().WaitForIndex()
	if got := boot.Status().RecordsApplied; got != uint64(late) {
		return nil, fmt.Errorf("experiments: bundle follower replayed %d records, want %d", got, late)
	}

	// Probe the rows the late records moved, whose bits came from the
	// rebuilt state, and a random sample.
	lateRecs, err := wlog.ReadFrom(want-uint64(late), 0)
	if err != nil {
		return nil, err
	}
	var probe []int
	for _, rec := range lateRecs {
		for _, e := range rec.Edges {
			probe = append(probe, e.Src, e.Dst)
		}
	}
	qrng := rand.New(rand.NewSource(opt.Seed + 3))
	for i := 0; i < opt.Queries; i++ {
		probe = append(probe, qrng.Intn(g.N))
	}
	for _, u := range probe {
		lead, err := leader.TopLinks(u, 10, engine.ModeExact, 0)
		if err != nil {
			return nil, err
		}
		for name, f := range map[string]*replica.Replica{"tailing follower": tail, "bundle follower": boot} {
			got, err := f.Engine().TopLinks(u, 10, engine.ModeExact, 0)
			if err != nil {
				return nil, err
			}
			if err := sameScored(name+" exact", u, lead.Results, got.Results); err != nil {
				return nil, err
			}
		}
	}
	b.RecallVsLeader = 1
	return b, nil
}

// replayLate is how many of the backlog's last records the bundle
// follower replays after its bootstrap.
const replayLate = 3

// timeAppends appends recs through one fresh log under policy and
// returns the wall time of the append loop alone.
func timeAppends(recs []wal.Record, policy wal.SyncPolicy) (float64, error) {
	dir, err := os.MkdirTemp("", "pane-replbench-append")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Sync: policy, SyncEvery: 10 * time.Millisecond})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	t0 := time.Now()
	for _, rec := range recs {
		if err := log.Append(rec); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// PrintReplicate renders the report.
func PrintReplicate(w io.Writer, b *ReplicateBench) {
	fmt.Fprintf(w, "Replication: n=%d m=%d d=%d k=%d, %d-update backlog of %d-edge records\n",
		b.N, b.Edges, b.D, b.K, b.Backlog, b.BatchEdges)
	fmt.Fprintf(w, "%-10s | %10s %12s %10s\n", "fsync", "records", "records/s", "MB/s")
	for _, p := range b.Append {
		fmt.Fprintf(w, "%-10s | %10d %12.0f %10.2f\n", p.Policy, p.Records, p.RecordsPerSec, p.MBPerSec)
	}
	fmt.Fprintf(w, "sync-free append speedup: %.1fx (none vs always)\n", b.SyncFreeSpeedup)
	fmt.Fprintf(w, "catch-up: replay %.3fs (%.0f records/s) vs bundle %.3fs — crossover at %.0f records (recall %.4f)\n",
		b.ReplaySeconds, b.ReplayRecordsPerSec, b.SnapshotSeconds, b.CrossoverRecords, b.RecallVsLeader)
	printEnv(w, b.Env)
}

// CheckReplicateBaseline is the CI gate for the replication tier. Both
// gated numbers are same-machine ratios (fsync-free vs fsync-bound
// appends; bundle fetch vs per-record replay), so runner hardware
// drops out exactly as in the other gates. The crossover is gated in
// both directions: falling means record replay got relatively slower,
// rising means the bundle path did.
func CheckReplicateBaseline(cur, base *ReplicateBench, tol float64) error {
	if tol < 0 {
		return fmt.Errorf("experiments: negative tolerance %v", tol)
	}
	if len(cur.Append) == 0 || cur.ReplayRecordsPerSec <= 0 {
		return fmt.Errorf("experiments: replicate gate: empty report")
	}
	var failures []string
	if base.SyncFreeSpeedup > 0 && cur.SyncFreeSpeedup < base.SyncFreeSpeedup*(1-tol) {
		failures = append(failures, fmt.Sprintf(
			"sync-free append speedup %.1fx dropped more than %.0f%% below baseline %.1fx",
			cur.SyncFreeSpeedup, tol*100, base.SyncFreeSpeedup))
	}
	if base.CrossoverRecords > 0 {
		if cur.CrossoverRecords < base.CrossoverRecords*(1-tol) {
			failures = append(failures, fmt.Sprintf(
				"replay/bundle crossover %.0f records dropped more than %.0f%% below baseline %.0f — record replay regressed",
				cur.CrossoverRecords, tol*100, base.CrossoverRecords))
		}
		if cur.CrossoverRecords*(1-tol) > base.CrossoverRecords {
			failures = append(failures, fmt.Sprintf(
				"replay/bundle crossover %.0f records rose more than %.0f%% above baseline %.0f — bundle catch-up regressed",
				cur.CrossoverRecords, tol*100, base.CrossoverRecords))
		}
	}
	if len(failures) == 0 {
		return nil
	}
	msg := "experiments: replication perf regression vs baseline:"
	for _, f := range failures {
		msg += "\n  - " + f
	}
	return fmt.Errorf("%s", msg)
}
