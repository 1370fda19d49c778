package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/engine"
	"pane/internal/graph"
	"pane/internal/replica"
	"pane/internal/server"
	"pane/internal/wal"
)

// spec sizes the fixture and the traffic. The benchmark always runs
// benchSpec; the smoke test shrinks it.
type spec struct {
	N int // nodes
	K int // space budget: candidate rows are K/2 float64

	Warmup time.Duration // discarded head of every measured run

	// mixed_rw arrival rates (requests per second).
	ReadRate  float64
	WriteRate float64

	// How much of each workload's op sequence the traced run replays, and
	// how many writes and per-mode queries its layer sweep makes.
	TraceOps, TraceBatches, SweepQueries, SweepBatches, SweepWrites int
}

// benchSpec is the benchmark's one fixture, the issue's: K = 128 keeps
// candidate rows at 64 float64, so at 30000 nodes the float64 matrix is
// 15 MB, the fp16 codes 3.8 MB and the int8 codes 1.9 MB against 2 MB of
// L2 per core — the regime the quantised tiers exist for. Rates are
// constants of the benchmark (about a third of two cores), so a faster
// system shows lower latency, not more requests.
var benchSpec = spec{
	N: 30000, K: 128,
	Warmup:   3 * time.Second,
	ReadRate: 100, WriteRate: 4,
	TraceOps: 500, TraceBatches: 60, SweepQueries: 60, SweepBatches: 8, SweepWrites: 24,
}

const (
	threads      = 2                     // core.Config.Threads and GOMAXPROCS
	followerPoll = 20 * time.Millisecond // replica.Options.Poll
)

// setupTiming splits setup_s by the layer that spent it.
type setupTiming struct {
	Generate   float64 // datagen.Generate
	Affinity   float64 // core.AffinityFromGraph
	SVDCCD     float64 // core.PSVDCCD
	IndexBuild float64 // engine.New + WaitForIndex
	Total      float64
}

// listener is one real HTTP server on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	l := &listener{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close()
	}()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close() // a connection is stuck; drop it
	}
	<-l.done
}

// applyLog collects what an engine's update observer reports, with the
// time each version became visible.
type applyLog struct {
	mu    sync.Mutex
	at    map[uint64]time.Time
	stats []engine.UpdateStats
}

func newApplyLog() *applyLog { return &applyLog{at: make(map[uint64]time.Time)} }

func (a *applyLog) observe(s engine.UpdateStats) {
	now := time.Now()
	a.mu.Lock()
	a.at[s.Version] = now
	a.stats = append(a.stats, s)
	a.mu.Unlock()
}

func (a *applyLog) appliedAt(v uint64) (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.at[v]
	return t, ok
}

func (a *applyLog) snapshot() []engine.UpdateStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]engine.UpdateStats(nil), a.stats...)
}

// fixture is one freshly trained model behind the real server mux on a
// loopback listener, plus — when replicated — a WAL on the leader and one
// in-process follower behind its own listener.
type fixture struct {
	spec spec
	seed int64
	g    *graph.Graph
	cfg  core.Config

	eng      *engine.Engine
	srv      *server.Server
	leader   *listener
	applied  *applyLog // leader's updates
	timing   setupTiming
	workDir  string
	wlog     *wal.Log
	walDir   string
	rep      *replica.Replica
	follower *listener
	replayed *applyLog // follower's updates
	stopRun  context.CancelFunc
	runDone  chan struct{}
}

func engineOptions(observer func(engine.UpdateStats)) []engine.Option {
	return []engine.Option{
		engine.WithIndex(engine.IndexConfig{IVF: true, Quantize: true, FP16: true, Shards: 2}),
		engine.WithRefreshThreshold(1),
		engine.WithAffinityThreshold(1),
		engine.WithUpdateObserver(observer),
	}
}

// newFixture builds everything a workload needs, from the seed alone and
// with no cross-run cache, so its duration is a clean setup_s sample.
// wrap, when non-nil, goes between the leader's listener and the server
// mux (the traced run's span recorder).
func newFixture(sp spec, seed int64, replicated bool, workDir string, wrap func(http.Handler) http.Handler) (_ *fixture, err error) {
	f := &fixture{spec: sp, seed: seed, workDir: workDir, applied: newApplyLog()}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	start := time.Now()
	lap := func(dst *float64, since *time.Time) {
		now := time.Now()
		*dst = now.Sub(*since).Seconds()
		*since = now
	}
	t := start

	f.g, err = datagen.Generate(datagen.Config{
		Name: "bench", N: sp.N, AvgOutDeg: 8, D: 100, AttrsPer: 6, Communities: 50, Seed: seed,
	})
	if err != nil {
		return f, fmt.Errorf("datagen: %w", err)
	}
	lap(&f.timing.Generate, &t)

	// The two calls core.ParallelPANE makes, split so each gets a figure.
	f.cfg = core.Config{K: sp.K, Alpha: 0.5, Eps: 0.25, Threads: threads, Seed: seed}
	if err := f.cfg.Validate(); err != nil {
		return f, fmt.Errorf("core config: %w", err)
	}
	fwd, bwd := core.AffinityFromGraph(f.g, f.cfg.Alpha, f.cfg.Iterations(), threads)
	lap(&f.timing.Affinity, &t)
	emb := core.PSVDCCD(fwd, bwd, f.cfg, threads)
	lap(&f.timing.SVDCCD, &t)

	f.eng, err = engine.New(f.g, emb, f.cfg, engineOptions(f.applied.observe)...)
	if err != nil {
		return f, fmt.Errorf("engine: %w", err)
	}
	f.eng.WaitForIndex()
	lap(&f.timing.IndexBuild, &t)

	f.srv = server.New(f.eng)
	var h http.Handler = f.srv
	if wrap != nil {
		h = wrap(h)
	}
	if f.leader, err = listen(h); err != nil {
		return f, err
	}
	if replicated {
		if err := f.attachReplica(true); err != nil {
			return f, err
		}
	}
	f.timing.Total = time.Since(start).Seconds()
	return f, nil
}

// attachReplica gives the leader a SyncAlways WAL and bootstraps the
// follower from its /bundle. With tail set the follower then tails the
// leader on its own (Run); otherwise the caller drives SyncOnce.
func (f *fixture) attachReplica(tail bool) error {
	var err error
	if f.walDir, err = os.MkdirTemp(f.workDir, "wal-"); err != nil {
		return fmt.Errorf("wal dir: %w", err)
	}
	if f.wlog, err = wal.Open(f.walDir, wal.Options{Sync: wal.SyncAlways}); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.eng.AttachWAL(f.wlog); err != nil {
		return fmt.Errorf("attach wal: %w", err)
	}
	f.replayed = newApplyLog()
	f.rep, err = replica.Bootstrap(context.Background(),
		replica.Options{Leader: f.leader.url, Poll: followerPoll},
		engineOptions(f.replayed.observe)...)
	if err != nil {
		return fmt.Errorf("follower bootstrap: %w", err)
	}
	f.rep.Engine().WaitForIndex()
	if f.follower, err = listen(server.New(f.rep.Engine(), server.WithReadOnly())); err != nil {
		return err
	}
	if tail {
		ctx, cancel := context.WithCancel(context.Background())
		f.stopRun, f.runDone = cancel, make(chan struct{})
		go func() {
			defer close(f.runDone)
			f.rep.Run(ctx)
		}()
	}
	return nil
}

// converge waits, for at most 30 s, until the tailing follower has applied
// everything the leader has, and then for both index refreshes. Versions
// the follower never reaches are counted by the caller.
func (f *fixture) converge() {
	want := f.eng.Version()
	deadline := time.Now().Add(30 * time.Second)
	for f.rep.Engine().Version() < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	f.eng.WaitForIndex()
	f.rep.Engine().WaitForIndex()
}

// stopTail stops the follower's own tailing loop and waits for it.
func (f *fixture) stopTail() {
	if f.stopRun != nil {
		f.stopRun()
		<-f.runDone
		f.stopRun = nil
	}
}

// close stops everything the fixture started and waits for it.
func (f *fixture) close() {
	f.stopTail()
	if f.follower != nil {
		f.follower.close()
	}
	if f.leader != nil {
		f.leader.close()
	}
	if f.eng != nil {
		f.eng.WaitForIndex()
	}
	if f.rep != nil {
		f.rep.Engine().WaitForIndex()
	}
	if f.wlog != nil {
		_ = f.wlog.Close() // the directory is removed next
	}
	if f.walDir != "" {
		_ = os.RemoveAll(f.walDir)
	}
}

// workDirFor returns (creating it) the scratch directory under the
// benchmark's output directory; everything the benchmark writes lives
// below dir.
func workDirFor(dir string) (string, error) {
	w := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(w, 0o755); err != nil {
		return "", err
	}
	return w, nil
}
