// Command paneserve trains (or restores) a PANE model and serves it over
// HTTP behind the lifecycle engine — see internal/server for the endpoint
// list. The served model is live: POST /update/* applies dynamic graph
// updates, and the model can be snapshotted to a single bundle file on
// demand, on a timer, and on shutdown.
//
// Train from graph files, snapshotting every 5 minutes:
//
//	paneserve -edges g.edges -attrs g.attrs -k 128 \
//	          -snapshot model.pane -snapshot-every 5m -addr :8080
//
// Or restore a previously saved bundle (from cmd/pane or a snapshot):
//
//	paneserve -load model.pane -addr :8080
//
// Replication (see the README's Replication section): a leader adds a
// durable write-ahead delta log so every applied update survives a
// crash and can be tailed by followers —
//
//	paneserve -load model.pane -wal wal/ -wal-sync always \
//	          -snapshot model.pane -snapshot-every 5m -addr :8080
//
// while a follower bootstraps from the leader's /bundle, tails its
// /replicate stream, and serves the read endpoints only (writes answer
// 403):
//
//	paneserve -follow http://leader:8080 -addr :8081
//
// On restart a leader replays the log records past its restored bundle,
// so no acknowledged update is lost; a snapshot compacts log segments
// the bundle's version makes redundant. Followers report
// replication_lag_records / applied_version under /healthz and
// /metrics, and fall back to a full bundle fetch when their lag exceeds
// -follow-lag (or their log position was compacted away).
//
// Failover (see the README's "Failover runbook"): a follower started
// with -promote-wal can be promoted in place when the leader dies —
//
//	paneserve -follow http://leader:8080 -promote-wal wal/ -addr :8081
//	curl -X POST http://follower:8081/promote
//
// Promotion stops the tail, opens the promotion WAL, raises the fencing
// epoch, and lifts read-only mode; the deposed leader's appends fail
// with a fencing error the moment it hears the new epoch. While a
// follower cannot reach its leader it keeps serving reads, advertising
// X-Pane-Staleness: stale and failing GET /readyz so load balancers can
// drain it without killing it.
//
// Observability: the main listener always serves GET /metrics (Prometheus
// text). -metrics-addr starts a second, admin-only listener carrying
// /metrics, /debug/pprof/* and /debug/vars (expvar, with the full metric
// snapshot published under "pane") — keep it off the public network.
// -slow-query-ms logs any request slower than the threshold and counts it
// in pane_http_slow_requests_total.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"pane/internal/core"
	"pane/internal/engine"
	"pane/internal/graph"
	"pane/internal/replica"
	"pane/internal/server"
	"pane/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paneserve: ")
	var (
		edgePath  = flag.String("edges", "", "edge list file (training mode)")
		attrPath  = flag.String("attrs", "", "attribute file (training mode)")
		loadPath  = flag.String("load", "", "model bundle to restore instead of training")
		snapPath  = flag.String("snapshot", "", "bundle path for POST /snapshot, periodic and shutdown snapshots")
		snapEvery = flag.Duration("snapshot-every", 0, "periodic snapshot interval (0 disables; requires -snapshot)")
		addr      = flag.String("addr", ":8080", "listen address")
		k         = flag.Int("k", 128, "space budget")
		alpha     = flag.Float64("alpha", 0.5, "stopping probability")
		eps       = flag.Float64("eps", 0.015, "error threshold")
		threads   = flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads; defaults to GOMAXPROCS")
		seed      = flag.Int64("seed", 1, "random seed")
		sweeps    = flag.Int("sweeps", engine.DefaultUpdateSweeps, "CCD sweeps per dynamic update")
		indexMode = flag.String("index", "auto", "serving index: off, exact, ivf (exact+IVF), or auto (bundle setting when present, ivf+sq8 otherwise)")
		nlist     = flag.Int("nlist", 0, "IVF coarse clusters per shard (0 = sqrt(shard rows))")
		nprobe    = flag.Int("nprobe", 0, "default IVF lists probed per query (0 = nlist/8)")
		shards    = flag.Int("shards", 1, "serving-index shards: contiguous candidate row partitions rebuilt and searched concurrently")
		quantize  = flag.Bool("quantize", true, "build the SQ8/IVFSQ quantized tiers (mode=sq8, mode=ivfsq on the top-k routes)")
		rerank    = flag.Int("rerank", 0, "quantized survivor multiplier: re-rank rerank*k candidates exactly (0 = default)")
		fp16      = flag.Bool("fp16", true, "build the binary16 tiers (mode=fp16, mode=ivffp16 on the top-k routes)")
		refresh   = flag.Float64("refresh-threshold", engine.DefaultRefreshThreshold,
			"dirty-row fraction at or below which updates refresh the serving index incrementally instead of rebuilding (0 = always rebuild)")
		affinity = flag.Float64("affinity-threshold", engine.DefaultAffinityThreshold,
			"frontier fraction in (0,1] at or below which updates patch the retained affinity recurrence instead of rebuilding it")
		debug       = flag.Bool("debug", false, "log per-update delta sizes and update-path choices")
		metricsAddr = flag.String("metrics-addr", "",
			"admin listener address for /metrics + /debug/pprof + /debug/vars (empty = disabled; /metrics is always on the main listener)")
		slowQueryMS = flag.Int("slow-query-ms", 0,
			"log requests slower than this many milliseconds (0 disables the slow-query log)")
		walDir = flag.String("wal", "",
			"write-ahead log directory (leader mode): every applied update is logged before it publishes, and restart replays the log past the restored bundle")
		walSync = flag.String("wal-sync", "always",
			"WAL fsync policy: always (durable per update), interval (flush every -wal-sync-interval), or none (OS-paced)")
		walSyncInterval = flag.Duration("wal-sync-interval", 100*time.Millisecond,
			"flush cadence under -wal-sync interval")
		walSegBytes = flag.Int64("wal-segment-bytes", 64<<20,
			"WAL segment rotation size; snapshots compact whole segments at or below the snapshotted version")
		followURL = flag.String("follow", "",
			"follower mode: bootstrap from this leader's /bundle, tail its /replicate stream, and serve read-only")
		followPoll = flag.Duration("follow-poll", 500*time.Millisecond,
			"poll interval while caught up with the leader")
		followLag = flag.Uint64("follow-lag", 10000,
			"record lag past which the follower fetches a bundle instead of replaying deltas")
		followRetries = flag.Int("follow-bootstrap-retries", 5,
			"extra bootstrap attempts (capped exponential backoff) before a follower gives up on an unreachable leader")
		promoteWAL = flag.String("promote-wal", "",
			"write-ahead log directory this follower opens when promoted to leader via POST /promote (empty keeps the route disabled)")
	)
	flag.Parse()
	if *snapEvery > 0 && *snapPath == "" {
		log.Fatal("-snapshot-every requires -snapshot")
	}
	if *followURL != "" {
		if *walDir != "" {
			log.Fatal("-follow and -wal are mutually exclusive: followers do not write a log")
		}
		if *loadPath != "" || *edgePath != "" || *attrPath != "" {
			log.Fatal("-follow bootstraps from the leader; drop -load/-edges/-attrs")
		}
	} else if *promoteWAL != "" {
		log.Fatal("-promote-wal is follower-only: a process that is already a leader has -wal")
	}

	// An explicitly passed -shards must win even when "auto" restores a
	// bundle-recorded index configuration.
	shardsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})

	// indexOpts maps -index to engine options. "auto" defers to a loaded
	// bundle's recorded configuration and falls back to full indexing
	// when there is none (or when training fresh); an explicit -shards
	// overrides the shard count either way.
	indexOpts := func(loading bool) []engine.Option {
		ivfCfg := engine.IndexConfig{
			IVF: true, NList: *nlist, NProbe: *nprobe, Shards: *shards,
			Quantize: *quantize, Rerank: *rerank, FP16: *fp16,
		}
		var opts []engine.Option
		switch *indexMode {
		case "off":
			if loading {
				return []engine.Option{engine.WithoutIndex()}
			}
			return nil
		case "exact":
			opts = []engine.Option{engine.WithIndex(engine.IndexConfig{
				Shards: *shards, Quantize: *quantize, Rerank: *rerank, FP16: *fp16,
			})}
		case "ivf":
			opts = []engine.Option{engine.WithIndex(ivfCfg)}
		case "auto":
			opts = []engine.Option{engine.WithFallbackIndex(ivfCfg)}
			// Only "auto" can restore a bundle-recorded layout that
			// disagrees with the flag; the explicit modes above already
			// carry *shards in their configs.
			if shardsSet {
				opts = append(opts, engine.WithShards(*shards))
			}
		default:
			log.Fatalf("unknown -index mode %q (want off, exact, ivf, or auto)", *indexMode)
		}
		return opts
	}

	// Options shared by both construction paths: sweep count, the
	// incremental-refresh threshold, and (with -debug) an observer that
	// logs each update's delta size and which path served it.
	commonOpts := []engine.Option{
		engine.WithUpdateSweeps(*sweeps),
		engine.WithRefreshThreshold(*refresh),
		engine.WithAffinityThreshold(*affinity),
	}
	if *debug {
		commonOpts = append(commonOpts, engine.WithUpdateObserver(func(s engine.UpdateStats) {
			path := "full"
			if s.Incremental {
				path = "incremental"
			}
			aff := "full"
			if s.AffinityIncremental {
				aff = "incremental"
			}
			gram := ""
			if s.GramCorrection {
				gram = ", gram-corrected links"
			}
			log.Printf("debug: update v%d: delta %d node rows + %d attr rows (%s path; %s affinity, frontier %d%s)",
				s.Version, s.DirtyNodes, s.DirtyAttrs, path, aff, s.AffinityFrontier, gram)
		}))
	}

	var (
		eng *engine.Engine
		rep *replica.Replica
		err error
	)
	switch {
	case *followURL != "":
		opts := append(append([]engine.Option{}, commonOpts...), indexOpts(true)...)
		rep, err = replica.Bootstrap(context.Background(), replica.Options{
			Leader: *followURL, Poll: *followPoll, LagFallback: *followLag,
			BootstrapRetries: *followRetries,
		}, opts...)
		if err != nil {
			log.Fatalf("bootstrapping from leader: %v", err)
		}
		eng = rep.Engine()
		m := eng.Model()
		log.Printf("following %s: version %d, %d nodes, %d attrs, k=%d",
			*followURL, m.Version, m.Nodes(), m.Attrs(), m.Emb.K())
	case *loadPath != "":
		opts := append(append([]engine.Option{}, commonOpts...), indexOpts(true)...)
		eng, err = engine.Open(*loadPath, opts...)
		if err != nil {
			log.Fatalf("restoring bundle: %v", err)
		}
		m := eng.Model()
		log.Printf("restored %s: version %d, %d nodes, %d attrs, k=%d",
			*loadPath, m.Version, m.Nodes(), m.Attrs(), m.Emb.K())
	case *edgePath != "" && *attrPath != "":
		g, err := graph.LoadFiles(*edgePath, *attrPath, "")
		if err != nil {
			log.Fatalf("loading graph: %v", err)
		}
		cfg := core.Config{K: *k, Alpha: *alpha, Eps: *eps, Threads: *threads, Seed: *seed}
		start := time.Now()
		opts := append(append([]engine.Option{}, commonOpts...), indexOpts(false)...)
		// engine.Train, taken apart so the log can say where the
		// training time went.
		emb, timing, err := core.Train(g, cfg)
		if err != nil {
			log.Fatalf("training: %v", err)
		}
		log.Printf("trained in %.2fs: %v", time.Since(start).Seconds(), timing)
		eng, err = engine.New(g, emb, cfg, opts...)
		if err != nil {
			log.Fatalf("building engine: %v", err)
		}
		if *snapPath != "" {
			if _, err := eng.Snapshot(*snapPath); err != nil {
				log.Fatalf("initial snapshot: %v", err)
			}
			log.Printf("saved %s", *snapPath)
		}
	default:
		flag.Usage()
		log.Fatal("either -load or both -edges and -attrs are required")
	}

	// Leader durability: attach the write-ahead log. Records past the
	// restored bundle replay first, so an acknowledged update stream
	// picks up exactly where the crashed process durably got to.
	var walLog *wal.Log
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		walLog, err = wal.Open(*walDir, wal.Options{
			Sync: policy, SyncEvery: *walSyncInterval, SegmentBytes: *walSegBytes,
		})
		if err != nil {
			log.Fatalf("opening WAL: %v", err)
		}
		before := eng.Version()
		if err := eng.AttachWAL(walLog); err != nil {
			log.Fatalf("attaching WAL: %v", err)
		}
		if after := eng.Version(); after != before {
			log.Printf("replayed WAL %s: version %d -> %d (%d records)", *walDir, before, after, after-before)
		} else {
			log.Printf("WAL %s attached at version %d (sync=%s)", *walDir, after, policy)
		}
	}

	if st := eng.IndexStatus(); st.Enabled {
		log.Printf("serving index: version %d, %d shard(s), ivf=%v nlist=%d nprobe=%d quantize=%v rerank=%d fp16=%v refresh-threshold=%.2f",
			st.Version, st.Shards, st.IVF, st.NList, st.NProbe, st.Quantize, st.Rerank, st.FP16, st.RefreshThreshold)
	} else {
		log.Print("serving index: disabled (top-k queries scan)")
	}
	log.Printf("kernel dispatch: %v", engine.KernelDispatch())

	var opts []server.Option
	if *snapPath != "" {
		opts = append(opts, server.WithSnapshotPath(*snapPath))
	}
	if *slowQueryMS > 0 {
		opts = append(opts, server.WithSlowQueryLog(time.Duration(*slowQueryMS)*time.Millisecond, nil))
	}
	// promotedLog holds the WAL a promoted follower opened; written once
	// from the /promote handler's goroutine, read at shutdown.
	var promotedLog atomic.Pointer[wal.Log]
	if rep != nil {
		opts = append(opts,
			server.WithReadOnly(),
			server.WithHealthSection("replication", func() interface{} { return rep.Status() }),
			server.WithStaleness(rep.Stale),
			server.WithReadiness("replication", func() error {
				if rep.Stale() {
					return errors.New("replication stale: leader unreachable")
				}
				return nil
			}))
		if *promoteWAL != "" {
			opts = append(opts, server.WithPromotion(func() (uint32, error) {
				policy, err := wal.ParseSyncPolicy(*walSync)
				if err != nil {
					return 0, err
				}
				plog, err := wal.Open(*promoteWAL, wal.Options{
					Sync: policy, SyncEvery: *walSyncInterval, SegmentBytes: *walSegBytes,
				})
				if err != nil {
					return 0, err
				}
				epoch, err := rep.Promote(plog)
				if err != nil {
					plog.Close()
					return 0, err
				}
				promotedLog.Store(plog)
				log.Printf("promoted to leader: epoch %d, version %d, wal %s (sync=%s)",
					epoch, eng.Version(), *promoteWAL, policy)
				return epoch, nil
			}))
		}
	}
	if walLog != nil {
		opts = append(opts, server.WithHealthSection("wal", func() interface{} {
			first, last, ok := walLog.Bounds()
			return map[string]interface{}{
				"first_record": first, "last_record": last, "records": ok, "sync": *walSync,
			}
		}))
	}
	srv := &http.Server{
		Addr:         *addr,
		Handler:      server.New(eng, opts...),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}

	// The admin listener carries the profiling and introspection surface a
	// public listener must not: pprof handlers (CPU/heap/goroutine
	// profiles can stall or leak internals), expvar, and the same
	// /metrics exposition. No read/write timeouts — CPU profiles stream
	// for their whole -seconds duration.
	var adminSrv *http.Server
	if *metricsAddr != "" {
		expvar.Publish("pane", expvar.Func(func() any { return eng.Metrics().Snapshot() }))
		admin := http.NewServeMux()
		admin.Handle("GET /metrics", eng.Metrics().Handler())
		admin.Handle("GET /debug/vars", expvar.Handler())
		admin.HandleFunc("/debug/pprof/", pprof.Index)
		admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
		admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
		adminSrv = &http.Server{Addr: *metricsAddr, Handler: admin}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if rep != nil {
		go rep.Run(ctx)
	}

	if *snapEvery > 0 {
		go func() {
			t := time.NewTicker(*snapEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if m, err := eng.Snapshot(*snapPath); err != nil {
						log.Printf("periodic snapshot: %v", err)
					} else {
						log.Printf("snapshot: version %d -> %s", m.Version, *snapPath)
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", *addr)
		errc <- srv.ListenAndServe()
	}()
	if adminSrv != nil {
		go func() {
			log.Printf("admin (metrics/pprof/expvar) on %s", *metricsAddr)
			if err := adminSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("admin listener: %v", err)
			}
		}()
	}

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if adminSrv != nil {
			if err := adminSrv.Shutdown(shutdownCtx); err != nil {
				log.Printf("admin shutdown: %v", err)
			}
		}
		if *snapPath != "" {
			if m, err := eng.Snapshot(*snapPath); err != nil {
				log.Printf("final snapshot: %v", err)
			} else {
				log.Printf("final snapshot: version %d -> %s", m.Version, *snapPath)
			}
		}
		// Close the log after the final snapshot: the snapshot's
		// compaction reclaims everything the bundle now anchors.
		if walLog != nil {
			if err := walLog.Close(); err != nil {
				log.Printf("closing WAL: %v", err)
			}
		}
		if plog := promotedLog.Load(); plog != nil {
			if err := plog.Close(); err != nil {
				log.Printf("closing promotion WAL: %v", err)
			}
		}
	}
}
