package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"pane/internal/core"
	"pane/internal/datagen"
	"pane/internal/engine"
	"pane/internal/index"
	"pane/internal/obs"
)

// TopKOptions configures the serving-index comparison of RunTopK. Zero
// values pick the defaults noted per field.
type TopKOptions struct {
	N       int   // nodes; 0 → 100000
	D       int   // attributes; 0 → 100
	K       int   // space budget; 0 → 32
	Threads int   // 0 → 1 (the comparison is about work, not cores)
	Seed    int64 // 0 → 1
	NList   int   // IVF lists; 0 → sqrt(n)
	NProbe  int   // probes per query; 0 → index default
	Queries int   // measured queries; 0 → 200
	TopK    int   // k per query; 0 → 10
	Rerank  int   // quantized survivor multiplier; 0 → index default
	// ShardPoints are the shard counts of the scaling sweep; nil → {1, 2,
	// 4, 8}. Empty (non-nil) skips the sweep.
	ShardPoints []int
}

// minFullProbeRecall is the report-integrity floor: IVF probing every
// list must reproduce the exact answer, so full-probe recall@k below this
// means the index is structurally broken and the run fails instead of
// printing a report that masks it.
const minFullProbeRecall = 0.9

// minSQ8Recall is the quantized-tier floor the CI perf gate enforces on
// every run: SQ8 at its default re-rank window must recover at least this
// fraction of the exact top-k, or the run fails — near-exactness is the
// quantized tier's contract, not a tunable.
const minSQ8Recall = 0.99

// minFP16Recall is the binary16 tier's floor, enforced on every run: the
// fp16 scan serves WITHOUT exact re-rank, so its 11-bit significands must
// keep recall@k at or above this on their own — near-exactness is the
// representation's contract, not a tunable, and there is no re-rank knob
// to trade it away.
//
// The floor is enforced on the missed-slot count with a binomial sampling
// allowance (see fp16MissAllowance) rather than as a sharp ratio cutoff.
// On the committed bench data the tier's true recall sits almost exactly
// at the floor — the misses are rank-boundary pairs whose float64 score
// gap is below fp16's 2^-11 relative resolution, so per-query-sample
// measurements wobble a few slots either side of slots/1000 (measured
// 0.9988–0.9992 across samples; centering or re-scaling the codes does
// not help, the information simply isn't in 11 bits). A sharp cutoff at
// exactly the expectation would make the gate a coin flip on healthy
// code; the 2σ allowance keeps it deterministic there while a genuinely
// broken tier (recall 0.99 → 10σ over budget) still fails hard.
const minFP16Recall = 0.999

// fp16MissAllowance is the largest missed-slot count the fp16 gate
// accepts over `slots` scored slots: the minFP16Recall expectation plus
// two binomial standard deviations (σ ≈ sqrt(slots·p) for small miss
// probability p), never below one — at tiny test scales a single miss is
// one boundary tie, indistinguishable from correct behavior.
func fp16MissAllowance(slots int) int {
	expected := float64(slots) * (1 - minFP16Recall)
	allowed := int(math.Round(expected + 2*math.Sqrt(expected)))
	if allowed < 1 {
		allowed = 1
	}
	return allowed
}

// ShardScalingPoint is one row of the shard-count sweep: the same model
// and query stream served through S shards.
type ShardScalingPoint struct {
	Shards            int     `json:"shards"`
	IndexBuildSeconds float64 `json:"index_build_seconds"`
	ExactQPS          float64 `json:"exact_qps"`
	IVFQPS            float64 `json:"ivf_qps"`
	SQ8QPS            float64 `json:"sq8_qps"`
	FP16QPS           float64 `json:"fp16_qps,omitempty"`
	RecallAtK         float64 `json:"recall_at_k"`
}

// BatchPoint is one row of the batch-size sweep: the same exact top-links
// queries answered through Engine.Execute in batches of Size and through
// Engine.TopLinks one at a time, every batch member verified bit for bit
// against its single-query answer.
type BatchPoint struct {
	Size       int     `json:"size"`
	BatchQPS   float64 `json:"batch_qps"`   // queries per second through Execute
	SinglesQPS float64 `json:"singles_qps"` // the same queries through TopLinks
	// Speedup is batch_qps / singles_qps — a same-machine, same-run ratio,
	// the figure CheckTopKBaseline gates at Size 32.
	Speedup         float64 `json:"batch_speedup"`
	AllocsPerMember float64 `json:"allocs_per_member"`
}

// batchSweepSizes is the batch-size axis; batchGateSize the point the
// perf gate reads.
var batchSweepSizes = []int{1, 4, 16, 32, 64, 128}

const batchGateSize = 32

// topkRounds is how many times the scan and every cell are timed, in
// interleaved rounds: a speedup is the median of its per-round ratios, so
// a window one path spent beside a noisy neighbour moves one ratio, not
// the gated figure. With one window a path, the quick gate failed about
// one run in three on a 2-core host.
const topkRounds = 3

// Env says where a report's numbers were taken, so they can be read at
// all: the same run on half the cores or without the vector kernels is a
// different experiment.
type Env struct {
	CPU        string            `json:"cpu"`
	Cores      int               `json:"cores"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Kernels    map[string]string `json:"kernels"` // engine.KernelDispatch: op → instruction set
	Go         string            `json:"go"`
	Commit     string            `json:"commit,omitempty"`
}

// CaptureEnv stamps the running process. The CPU model is read from
// /proc/cpuinfo where there is one; the commit is the VCS revision the
// toolchain recorded in the binary ("+dirty" when the tree had uncommitted
// changes), absent when built outside a repository.
func CaptureEnv() *Env {
	e := &Env{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernels: engine.KernelDispatch(), Go: runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				e.Commit = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if e.Commit != "" {
			e.Commit += dirty
		}
	}
	return e
}

// printEnv renders a report's stamp, when it has one (reports written
// before the stamp existed load without).
func printEnv(w io.Writer, e *Env) {
	if e != nil {
		fmt.Fprintf(w, "\nenv: %q, %d cores, GOMAXPROCS %d, %s, kernels %v, commit %s\n", e.CPU, e.Cores, e.GOMAXPROCS, e.Go, e.Kernels, e.Commit)
	}
}

// TopKBench is the measured exact-vs-IVF serving comparison emitted as
// BENCH_topk.json by `benchexp -exp topk`. QPS numbers are single-stream
// (one query at a time, as a latency-sensitive caller sees them).
type TopKBench struct {
	N       int `json:"n"`
	Edges   int `json:"edges"`
	D       int `json:"d"`
	K       int `json:"k"`
	Queries int `json:"queries"`
	TopK    int `json:"top_k"`
	NList   int `json:"nlist"`
	NProbe  int `json:"nprobe"`
	Rerank  int `json:"rerank"` // quantized survivor multiplier in effect
	// Threads is core.Config.Threads: training parallelism and, divided by
	// the shard count, each table's search fan-out — what the allocs/query
	// columns scale with.
	Threads int `json:"threads,omitempty"`

	TrainSeconds      float64 `json:"train_seconds"`
	IndexBuildSeconds float64 `json:"index_build_seconds"`

	ScanQPS    float64 `json:"scan_qps"`           // PR-1 brute force (per-query transform + full scan)
	ExactQPS   float64 `json:"exact_qps"`          // exact backend over precomputed Z
	IVFQPS     float64 `json:"ivf_qps"`            // IVF backend at NProbe
	SQ8QPS     float64 `json:"sq8_qps"`            // quantized flat scan + exact re-rank
	IVFSQQPS   float64 `json:"ivfsq_qps"`          // quantized IVF at the same NProbe
	FP16QPS    float64 `json:"fp16_qps,omitempty"` // binary16 flat scan, no re-rank
	IVFFP16QPS float64 `json:"ivffp16_qps,omitempty"`

	RecallAtK       float64 `json:"recall_at_k"`              // IVF vs exact, fraction of top-k ids recovered
	RecallFullProbe float64 `json:"recall_full_probe"`        // IVF probing every list; < 0.9 fails the run
	RecallSQ8       float64 `json:"recall_sq8"`               // SQ8 vs exact; < 0.99 fails the run
	RecallIVFSQ     float64 `json:"recall_ivfsq"`             // IVFSQ vs exact at NProbe
	RecallFP16      float64 `json:"recall_fp16,omitempty"`    // fp16 vs exact; gated at 0.999 + 2σ allowance
	RecallIVFFP16   float64 `json:"recall_ivffp16,omitempty"` // ivffp16 vs exact at NProbe

	SpeedupExactVsScan   float64 `json:"speedup_exact_vs_scan"`
	SpeedupIVFVsScan     float64 `json:"speedup_ivf_vs_scan"`
	SpeedupSQ8VsScan     float64 `json:"speedup_sq8_vs_scan"`
	SpeedupIVFSQVsScan   float64 `json:"speedup_ivfsq_vs_scan"`
	SpeedupFP16VsScan    float64 `json:"speedup_fp16_vs_scan,omitempty"`
	SpeedupIVFFP16VsScan float64 `json:"speedup_ivffp16_vs_scan,omitempty"`

	// Per-path heap allocations per query (runtime.MemStats.Mallocs over
	// the timed window), tracking the query-path pooling work.
	ScanAllocs    float64 `json:"scan_allocs_per_query"`
	ExactAllocs   float64 `json:"exact_allocs_per_query"`
	IVFAllocs     float64 `json:"ivf_allocs_per_query"`
	SQ8Allocs     float64 `json:"sq8_allocs_per_query"`
	IVFSQAllocs   float64 `json:"ivfsq_allocs_per_query"`
	FP16Allocs    float64 `json:"fp16_allocs_per_query,omitempty"`
	IVFFP16Allocs float64 `json:"ivffp16_allocs_per_query,omitempty"`

	// Per-path latency percentiles, recorded per query into the same
	// obs.Histogram type the live server scrapes through /metrics.
	// Pointers with omitempty so baselines written before these fields
	// existed still parse and gate (CheckTopKBaseline never reads them).
	ScanLatency    *obs.LatencySummary `json:"scan_latency_ms,omitempty"`
	ExactLatency   *obs.LatencySummary `json:"exact_latency_ms,omitempty"`
	IVFLatency     *obs.LatencySummary `json:"ivf_latency_ms,omitempty"`
	SQ8Latency     *obs.LatencySummary `json:"sq8_latency_ms,omitempty"`
	IVFSQLatency   *obs.LatencySummary `json:"ivfsq_latency_ms,omitempty"`
	FP16Latency    *obs.LatencySummary `json:"fp16_latency_ms,omitempty"`
	IVFFP16Latency *obs.LatencySummary `json:"ivffp16_latency_ms,omitempty"`

	// Sharding is the shard-count scaling sweep: the same model served at
	// S ∈ ShardPoints, exact AND sq8 answers verified bit-for-bit against
	// S=1.
	Sharding []ShardScalingPoint `json:"sharding,omitempty"`

	// Batch is the batch-size sweep over exact top-links on the S=1
	// engine, and Env where all of the above was measured; both omitempty
	// so reports written before they existed still parse and gate.
	Batch []BatchPoint `json:"batch,omitempty"`
	Env   *Env         `json:"env,omitempty"`
}

// RunTopK generates a community-structured graph, trains a model, builds
// the serving indexes, and measures the three top-links paths against
// each other, then sweeps the shard count. It fails (rather than writing
// a misleading report) when IVF at full probe cannot reproduce the exact
// answer, and when sharded exact diverges from single-shard exact.
func RunTopK(opt TopKOptions) (*TopKBench, error) {
	if opt.N <= 0 {
		opt.N = 100000
	}
	if opt.D <= 0 {
		opt.D = 100
	}
	if opt.K <= 0 {
		opt.K = 32
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Queries <= 0 {
		opt.Queries = 200
	}
	if opt.TopK <= 0 {
		opt.TopK = 10
	}
	if opt.ShardPoints == nil {
		opt.ShardPoints = []int{1, 2, 4, 8}
	}

	g, err := datagen.Generate(datagen.Config{
		Name: "topkbench", N: opt.N, AvgOutDeg: 8, D: opt.D, AttrsPer: 6,
		Communities: 50, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	// Eps 0.25 keeps the training loop short (t = 1); the index
	// comparison needs realistic vector structure, not converged quality.
	cfg := core.Config{K: opt.K, Alpha: 0.5, Eps: 0.25, Threads: opt.Threads, Seed: opt.Seed}

	start := time.Now()
	emb, err := core.ParallelPANE(g, cfg)
	if err != nil {
		return nil, err
	}
	trainSec := time.Since(start).Seconds()

	// One engine per shard count, all wrapping the SAME trained
	// embedding, so every sweep point serves identical vectors.
	buildEngine := func(shards int) (*engine.Engine, float64, error) {
		t0 := time.Now()
		eng, err := engine.New(g, emb, cfg, engine.WithIndex(engine.IndexConfig{
			IVF: true, NList: opt.NList, NProbe: opt.NProbe, Shards: shards,
			Quantize: true, Rerank: opt.Rerank, FP16: true,
		}))
		return eng, time.Since(t0).Seconds(), err
	}
	eng, buildSec, err := buildEngine(1)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opt.Seed + 1))
	nodes := make([]int, opt.Queries)
	for i := range nodes {
		nodes[i] = rng.Intn(g.N)
	}
	m := eng.Model()

	// timeQueries also reports heap allocations per query (Mallocs is a
	// process-global counter, so worker-goroutine allocations are
	// included, and the single-stream loop keeps other mutators out of
	// the window) and records per-query durations into h, an
	// obs.Histogram — the same bucket layout the serving path exposes, so
	// bench percentiles and scraped percentiles are directly comparable.
	timeQueries := func(run func(u int) []core.Scored, h *obs.Histogram) ([][]core.Scored, float64, float64) {
		out := make([][]core.Scored, len(nodes))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i, u := range nodes {
			q0 := time.Now()
			out[i] = run(u)
			h.Observe(time.Since(q0))
		}
		elapsed := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms1)
		allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(len(nodes))
		return out, float64(len(nodes)) / elapsed, allocs
	}
	topLinks := func(e *engine.Engine, mode string, nprobe int, wantBackend string) func(u int) []core.Scored {
		return func(u int) []core.Scored {
			ans, err := e.TopLinks(u, opt.TopK, mode, nprobe)
			if err != nil {
				panic(err)
			}
			if ans.Backend != wantBackend {
				panic(wantBackend + " backend not used: " + ans.Backend)
			}
			return ans.Results
		}
	}
	overlap := func(truth, got [][]core.Scored) (hit, total int) {
		for i := range truth {
			in := make(map[int]bool, len(truth[i]))
			for _, s := range truth[i] {
				in[s.ID] = true
			}
			for _, s := range got[i] {
				if in[s.ID] {
					hit++
				}
			}
			total += len(truth[i])
		}
		return hit, total
	}
	recall := func(truth, got [][]core.Scored) float64 {
		hit, total := overlap(truth, got)
		return float64(hit) / float64(total)
	}

	// The scan, then each cell, once a round (see topkRounds). A path's
	// answers are the same every round; its QPS is the median round's, its
	// speedup the median of its per-round speedups over the scan, and its
	// allocations and latencies are over every round.
	type path struct {
		run          func(u int) []core.Scored
		res          [][]core.Scored
		qps, speedup []float64
		allocs       float64
		lat          *obs.Histogram
	}
	paths := make([]*path, 0, 7)
	for _, run := range []func(u int) []core.Scored{
		func(u int) []core.Scored { return m.Scorer.TopKTargets(u, opt.TopK, nil) },
		topLinks(eng, engine.ModeExact, 0, engine.BackendExact),
		topLinks(eng, engine.ModeIVF, 0, engine.BackendIVF),
		topLinks(eng, engine.ModeSQ8, 0, engine.BackendSQ8),
		topLinks(eng, engine.ModeIVFSQ, 0, engine.BackendIVFSQ),
		topLinks(eng, engine.ModeFP16, 0, engine.BackendFP16),
		topLinks(eng, engine.ModeIVFFP16, 0, engine.BackendIVFFP16),
	} {
		paths = append(paths, &path{run: run, lat: obs.NewHistogram()})
	}
	for r := range topkRounds {
		for _, p := range paths {
			res, qps, allocs := timeQueries(p.run, p.lat)
			p.res, p.qps, p.allocs = res, append(p.qps, qps), p.allocs+allocs/topkRounds
			p.speedup = append(p.speedup, qps/paths[0].qps[r])
		}
	}
	scan, exact, ivf, sq8, ivfsq, fp16, ivffp := paths[0], paths[1], paths[2], paths[3], paths[4], paths[5], paths[6]
	latency := func(p *path) *obs.LatencySummary {
		s := p.lat.SummaryMs()
		return &s
	}
	exactRes := exact.res

	st := eng.IndexStatus()
	// Full-probe IVF must reproduce the exact answer; anything well below
	// 1.0 means the inverted file itself lost candidates, and the report
	// must not mask that as an aggressive-nprobe artifact.
	fullRes, _, _ := timeQueries(topLinks(eng, engine.ModeIVF, st.NList, engine.BackendIVF), obs.NewHistogram())
	fullRecall := recall(exactRes, fullRes)
	if fullRecall < minFullProbeRecall {
		return nil, fmt.Errorf("experiments: IVF recall@%d at full nprobe is %.3f (< %.2f): serving index is broken",
			opt.TopK, fullRecall, minFullProbeRecall)
	}
	// The quantized tier's recall floor is part of its contract (and the
	// CI perf gate): a run below it must fail, not publish a fast number.
	// The floor is defined at the default-or-wider survivor window — an
	// explicit sub-default -rerank is a deliberate recall/speed trade the
	// operator asked to measure, so it gets a report, not an abort.
	sq8Recall := recall(exactRes, sq8.res)
	if (opt.Rerank <= 0 || opt.Rerank >= index.DefaultRerank) && sq8Recall < minSQ8Recall {
		return nil, fmt.Errorf("experiments: SQ8 recall@%d is %.4f (< %.2f): quantized tier is broken",
			opt.TopK, sq8Recall, minSQ8Recall)
	}
	// The binary16 tier has no re-rank to lean on, so its floor is
	// unconditional: a run below it must fail, not publish a fast number.
	// The gate counts missed slots against the floor's binomial allowance
	// (see fp16MissAllowance) rather than comparing the ratio sharply —
	// the misses are boundary ties below fp16 resolution and wobble a few
	// slots per query sample, while real breakage overshoots by many σ.
	fp16Hits, fp16Slots := overlap(exactRes, fp16.res)
	fp16Recall := float64(fp16Hits) / float64(fp16Slots)
	if misses := fp16Slots - fp16Hits; misses > fp16MissAllowance(fp16Slots) {
		return nil, fmt.Errorf("experiments: fp16 recall@%d is %.4f (%d/%d slots missed, floor %.3f allows %d): binary16 tier is broken",
			opt.TopK, fp16Recall, misses, fp16Slots, minFP16Recall, fp16MissAllowance(fp16Slots))
	}

	b := &TopKBench{
		N: g.N, Edges: g.M(), D: g.D, K: opt.K,
		Queries: opt.Queries, TopK: opt.TopK,
		NList: st.NList, NProbe: st.NProbe, Rerank: st.Rerank, Threads: opt.Threads,
		TrainSeconds: trainSec, IndexBuildSeconds: buildSec,
		ScanQPS: median(scan.qps), ExactQPS: median(exact.qps), IVFQPS: median(ivf.qps),
		SQ8QPS: median(sq8.qps), IVFSQQPS: median(ivfsq.qps),
		FP16QPS: median(fp16.qps), IVFFP16QPS: median(ivffp.qps),
		RecallAtK:            recall(exactRes, ivf.res),
		RecallFullProbe:      fullRecall,
		RecallSQ8:            sq8Recall,
		RecallIVFSQ:          recall(exactRes, ivfsq.res),
		RecallFP16:           fp16Recall,
		RecallIVFFP16:        recall(exactRes, ivffp.res),
		SpeedupExactVsScan:   median(exact.speedup),
		SpeedupIVFVsScan:     median(ivf.speedup),
		SpeedupSQ8VsScan:     median(sq8.speedup),
		SpeedupIVFSQVsScan:   median(ivfsq.speedup),
		SpeedupFP16VsScan:    median(fp16.speedup),
		SpeedupIVFFP16VsScan: median(ivffp.speedup),
		ScanAllocs:           scan.allocs,
		ExactAllocs:          exact.allocs,
		IVFAllocs:            ivf.allocs,
		SQ8Allocs:            sq8.allocs,
		IVFSQAllocs:          ivfsq.allocs,
		FP16Allocs:           fp16.allocs,
		IVFFP16Allocs:        ivffp.allocs,
		ScanLatency:          latency(scan),
		ExactLatency:         latency(exact),
		IVFLatency:           latency(ivf),
		SQ8Latency:           latency(sq8),
		IVFSQLatency:         latency(ivfsq),
		FP16Latency:          latency(fp16),
		IVFFP16Latency:       latency(ivffp),
	}

	b.Env = CaptureEnv()
	for _, size := range batchSweepSizes {
		p, err := batchPoint(eng, nodes, exactRes, opt.TopK, size)
		if err != nil {
			return nil, err
		}
		b.Batch = append(b.Batch, p)
	}

	for _, s := range opt.ShardPoints {
		if s < 1 {
			continue
		}
		if s == 1 {
			// Already built and measured for the headline numbers; a
			// second identical engine would add nothing but build time.
			b.Sharding = append(b.Sharding, ShardScalingPoint{
				Shards: 1, IndexBuildSeconds: buildSec,
				ExactQPS: b.ExactQPS, IVFQPS: b.IVFQPS, SQ8QPS: b.SQ8QPS, FP16QPS: b.FP16QPS,
				RecallAtK: b.RecallAtK,
			})
			continue
		}
		se, sBuild, err := buildEngine(s)
		if err != nil {
			return nil, err
		}
		// Sharded exact, sharded sq8, and sharded fp16 must all reproduce
		// their single-shard answers bit for bit: exact because the merge
		// is a total order over disjoint ids, sq8 because the survivor cut
		// is global and per-row quantization is shard-invariant, fp16
		// because every score is final (per-element encoding needs no
		// cross-shard calibration).
		verify := func(label string, want, got [][]core.Scored) error {
			for i := range want {
				if err := sameScored(fmt.Sprintf("shards=%d %s", s, label), nodes[i], want[i], got[i]); err != nil {
					return err
				}
			}
			return nil
		}
		sExactRes, sExactQPS, _ := timeQueries(topLinks(se, engine.ModeExact, 0, engine.BackendExact), obs.NewHistogram())
		if err := verify("exact", exactRes, sExactRes); err != nil {
			return nil, err
		}
		sSq8Res, sSq8QPS, _ := timeQueries(topLinks(se, engine.ModeSQ8, 0, engine.BackendSQ8), obs.NewHistogram())
		if err := verify("sq8", sq8.res, sSq8Res); err != nil {
			return nil, err
		}
		sFp16Res, sFp16QPS, _ := timeQueries(topLinks(se, engine.ModeFP16, 0, engine.BackendFP16), obs.NewHistogram())
		if err := verify("fp16", fp16.res, sFp16Res); err != nil {
			return nil, err
		}
		sIvfRes, sIvfQPS, _ := timeQueries(topLinks(se, engine.ModeIVF, 0, engine.BackendIVF), obs.NewHistogram())
		b.Sharding = append(b.Sharding, ShardScalingPoint{
			Shards:            s,
			IndexBuildSeconds: sBuild,
			ExactQPS:          sExactQPS,
			IVFQPS:            sIvfQPS,
			SQ8QPS:            sSq8QPS,
			FP16QPS:           sFp16QPS,
			RecallAtK:         recall(exactRes, sIvfRes),
		})
	}
	return b, nil
}

// batchPoint measures one batch size: nodes cut into consecutive batches
// of size through Execute, then the same nodes through TopLinks, on one
// stream. want holds the exact single-query answers already measured, and
// a batch member that differs from its own in any id or score bit fails
// the run — batching is only worth a number while it is invisible.
func batchPoint(eng *engine.Engine, nodes []int, want [][]core.Scored, topK, size int) (BatchPoint, error) {
	k := topK
	batches := make([][]engine.Query, 0, (len(nodes)+size-1)/size)
	for lo := 0; lo < len(nodes); lo += size {
		qs := make([]engine.Query, 0, size)
		for _, u := range nodes[lo:min(lo+size, len(nodes))] {
			qs = append(qs, engine.Query{Op: engine.OpTopLinks, Src: u, K: &k})
		}
		batches = append(batches, qs)
	}
	results := make([][]engine.Result, len(batches))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i, qs := range batches {
		results[i], _ = eng.Execute(qs)
	}
	batchSec := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	t0 = time.Now()
	for _, u := range nodes {
		if _, err := eng.TopLinks(u, topK, engine.ModeExact, 0); err != nil {
			return BatchPoint{}, err
		}
	}
	singlesSec := time.Since(t0).Seconds()
	i := 0
	for _, rs := range results {
		for _, r := range rs {
			if r.Err != "" || r.Backend != engine.BackendExact || len(r.Top) != len(want[i]) {
				return BatchPoint{}, fmt.Errorf("experiments: batch size %d query %d: backend %q, %d results (single: %d), error %q",
					size, i, r.Backend, len(r.Top), len(want[i]), r.Err)
			}
			for j := range r.Top {
				if r.Top[j] != want[i][j] {
					return BatchPoint{}, fmt.Errorf("experiments: batch size %d diverges from the single query at query %d rank %d: %v != %v",
						size, i, j, r.Top[j], want[i][j])
				}
			}
			i++
		}
	}
	n := float64(len(nodes))
	return BatchPoint{
		Size: size, BatchQPS: n / batchSec, SinglesQPS: n / singlesSec,
		Speedup:         singlesSec / batchSec,
		AllocsPerMember: float64(ms1.Mallocs-ms0.Mallocs) / n,
	}, nil
}

// PrintTopK renders the comparison as a table.
func PrintTopK(w io.Writer, b *TopKBench) {
	fmt.Fprintf(w, "Top-k serving: n=%d m=%d d=%d k=%d, %d queries, top-%d (nlist=%d nprobe=%d rerank=%d)\n",
		b.N, b.Edges, b.D, b.K, b.Queries, b.TopK, b.NList, b.NProbe, b.Rerank)
	fmt.Fprintf(w, "train %.1fs, index build %.1fs, full-probe recall %.3f\n",
		b.TrainSeconds, b.IndexBuildSeconds, b.RecallFullProbe)
	// latCols renders a path's p50/p95/p99 (ms); a report written before
	// the latency fields existed prints dashes instead of zeros.
	latCols := func(l *obs.LatencySummary) string {
		if l == nil {
			return fmt.Sprintf("%9s %9s %9s", "-", "-", "-")
		}
		return fmt.Sprintf("%9.3f %9.3f %9.3f", l.P50, l.P95, l.P99)
	}
	fmt.Fprintf(w, "%-22s %12s %10s %10s %12s %9s %9s %9s\n", "path", "QPS", "speedup", "recall", "allocs/op", "p50(ms)", "p95(ms)", "p99(ms)")
	fmt.Fprintf(w, "%-22s %12.1f %10s %10s %12.1f %s\n", "scan (PR-1 brute)", b.ScanQPS, "1.0x", "1.000", b.ScanAllocs, latCols(b.ScanLatency))
	fmt.Fprintf(w, "%-22s %12.1f %9.1fx %10s %12.1f %s\n", "index exact", b.ExactQPS, b.SpeedupExactVsScan, "1.000", b.ExactAllocs, latCols(b.ExactLatency))
	fmt.Fprintf(w, "%-22s %12.1f %9.1fx %10.3f %12.1f %s\n", "index ivf", b.IVFQPS, b.SpeedupIVFVsScan, b.RecallAtK, b.IVFAllocs, latCols(b.IVFLatency))
	fmt.Fprintf(w, "%-22s %12.1f %9.1fx %10.3f %12.1f %s\n", "index sq8", b.SQ8QPS, b.SpeedupSQ8VsScan, b.RecallSQ8, b.SQ8Allocs, latCols(b.SQ8Latency))
	fmt.Fprintf(w, "%-22s %12.1f %9.1fx %10.3f %12.1f %s\n", "index ivfsq", b.IVFSQQPS, b.SpeedupIVFSQVsScan, b.RecallIVFSQ, b.IVFSQAllocs, latCols(b.IVFSQLatency))
	if b.FP16QPS > 0 {
		fmt.Fprintf(w, "%-22s %12.1f %9.1fx %10.4f %12.1f %s\n", "index fp16", b.FP16QPS, b.SpeedupFP16VsScan, b.RecallFP16, b.FP16Allocs, latCols(b.FP16Latency))
		fmt.Fprintf(w, "%-22s %12.1f %9.1fx %10.4f %12.1f %s\n", "index ivffp16", b.IVFFP16QPS, b.SpeedupIVFFP16VsScan, b.RecallIVFFP16, b.IVFFP16Allocs, latCols(b.IVFFP16Latency))
	}
	if len(b.Batch) > 0 {
		fmt.Fprintf(w, "\nBatch size (exact top-links, Execute vs one TopLinks per query, members verified bit-for-bit):\n")
		fmt.Fprintf(w, "%-8s %14s %14s %10s %14s\n", "size", "batch q/s", "singles q/s", "speedup", "allocs/member")
		for _, p := range b.Batch {
			fmt.Fprintf(w, "%-8d %14.1f %14.1f %9.2fx %14.1f\n", p.Size, p.BatchQPS, p.SinglesQPS, p.Speedup, p.AllocsPerMember)
		}
	}
	printEnv(w, b.Env)
	if len(b.Sharding) > 0 {
		fmt.Fprintf(w, "\nShard scaling (exact, sq8, and fp16 verified bit-for-bit against S=1):\n")
		fmt.Fprintf(w, "%-8s %14s %12s %12s %12s %12s %10s\n", "shards", "build (s)", "exact QPS", "ivf QPS", "sq8 QPS", "fp16 QPS", "recall")
		for _, p := range b.Sharding {
			fmt.Fprintf(w, "%-8d %14.2f %12.1f %12.1f %12.1f %12.1f %10.3f\n",
				p.Shards, p.IndexBuildSeconds, p.ExactQPS, p.IVFQPS, p.SQ8QPS, p.FP16QPS, p.RecallAtK)
		}
	}
}

// CheckTopKBaseline is the CI perf-regression gate: it compares cur
// against a committed baseline and returns an error when IVF, SQ8, or
// IVFSQ throughput or recall@k regressed by more than tol (a fraction,
// e.g. 0.25). SQ8 and fp16 recall additionally have their absolute
// floors (minSQ8Recall, minFP16Recall), enforced when the run measured
// those tiers at all (RunTopK itself fails below the floors; the check
// here catches a hand-edited baseline or report).
//
// Recall is compared absolutely — it is hardware-independent. Throughput
// is compared via the scan-normalized speedup (backend QPS divided by the
// same run's brute-force QPS), never via raw QPS: the baseline was
// measured on whatever machine committed it, and dividing by the same
// run's scan path makes the runner's hardware drop out of the
// comparison. The trade-off — a regression that slows scan and the
// backends in lockstep hides in the ratio — is what keeps the gate
// deterministic on arbitrary CI runners. Quantized speedups are only
// gated when the baseline recorded them, so a pre-quantization baseline
// keeps working.
func CheckTopKBaseline(cur, base *TopKBench, tol float64) error {
	if tol < 0 {
		return fmt.Errorf("experiments: negative tolerance %v", tol)
	}
	var failures []string
	if cur.RecallAtK < base.RecallAtK-tol {
		failures = append(failures, fmt.Sprintf("recall@%d %.3f fell more than %.2f below baseline %.3f",
			cur.TopK, cur.RecallAtK, tol, base.RecallAtK))
	}
	if cur.SQ8QPS > 0 && cur.RecallSQ8 < minSQ8Recall {
		failures = append(failures, fmt.Sprintf("sq8 recall@%d %.4f is below the %.2f floor",
			cur.TopK, cur.RecallSQ8, minSQ8Recall))
	}
	// Like RunTopK's own gate, the fp16 floor is enforced on the
	// reconstructed miss count against the binomial allowance; the +0.5
	// absorbs float rounding in the reconstruction.
	if slots := cur.Queries * cur.TopK; cur.FP16QPS > 0 && slots > 0 &&
		(1-cur.RecallFP16)*float64(slots) > float64(fp16MissAllowance(slots))+0.5 {
		failures = append(failures, fmt.Sprintf("fp16 recall@%d %.4f is below the %.3f floor (allowance %d/%d slots)",
			cur.TopK, cur.RecallFP16, minFP16Recall, fp16MissAllowance(slots), slots))
	}
	speedups := []struct {
		name      string
		cur, base float64
	}{
		{"IVF", cur.SpeedupIVFVsScan, base.SpeedupIVFVsScan},
		{"SQ8", cur.SpeedupSQ8VsScan, base.SpeedupSQ8VsScan},
		{"IVFSQ", cur.SpeedupIVFSQVsScan, base.SpeedupIVFSQVsScan},
		{"FP16", cur.SpeedupFP16VsScan, base.SpeedupFP16VsScan},
		{"IVFFP16", cur.SpeedupIVFFP16VsScan, base.SpeedupIVFFP16VsScan},
	}
	// The batch gate reads one point of the sweep, as a same-run ratio
	// like the rest; a baseline without the sweep gates nothing.
	gatePoint := func(b *TopKBench) float64 {
		for _, p := range b.Batch {
			if p.Size == batchGateSize {
				return p.Speedup
			}
		}
		return 0
	}
	speedups = append(speedups, struct {
		name      string
		cur, base float64
	}{fmt.Sprintf("batch(%d)", batchGateSize), gatePoint(cur), gatePoint(base)})
	for _, s := range speedups {
		if s.base > 0 && s.cur < s.base*(1-tol) {
			failures = append(failures, fmt.Sprintf("%s speedup %.2fx dropped more than %.0f%% below baseline %.2fx",
				s.name, s.cur, tol*100, s.base))
		}
	}
	if len(failures) == 0 {
		return nil
	}
	msg := "experiments: top-k perf regression vs baseline:"
	for _, f := range failures {
		msg += "\n  - " + f
	}
	return fmt.Errorf("%s", msg)
}
