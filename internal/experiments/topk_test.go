package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

// bench returns a plausible baseline-shaped report for gate tests.
func bench() *TopKBench {
	return &TopKBench{
		N: 20000, K: 32, TopK: 10, Queries: 200,
		ScanQPS: 1000, ExactQPS: 1100, IVFQPS: 6000,
		RecallAtK: 0.99, RecallFullProbe: 1.0,
		SpeedupIVFVsScan: 6.0, SpeedupExactVsScan: 1.1,
	}
}

func TestCheckTopKBaselinePasses(t *testing.T) {
	base := bench()
	cur := bench()
	// Within tolerance: 20% slower and slightly lower recall.
	cur.IVFQPS = 4900
	cur.SpeedupIVFVsScan = 4.9
	cur.RecallAtK = 0.95
	if err := CheckTopKBaseline(cur, base, 0.25); err != nil {
		t.Fatalf("in-tolerance run rejected: %v", err)
	}
	// A different machine/graph size with a healthy speedup also passes:
	// raw QPS is not compared across shapes.
	cur = bench()
	cur.N = 100000
	cur.IVFQPS = 800 // much slower hardware...
	cur.ScanQPS = 130
	cur.SpeedupIVFVsScan = 6.2 // ...same relative win
	if err := CheckTopKBaseline(cur, base, 0.25); err != nil {
		t.Fatalf("cross-shape run rejected: %v", err)
	}
}

func TestCheckTopKBaselineFailsOnRegression(t *testing.T) {
	base := bench()

	slow := bench()
	slow.IVFQPS = 3000
	slow.SpeedupIVFVsScan = 3.0 // 50% drop
	err := CheckTopKBaseline(slow, base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "speedup") {
		t.Fatalf("speedup regression not caught: %v", err)
	}

	blurry := bench()
	blurry.RecallAtK = 0.60 // collapse well past tolerance
	err = CheckTopKBaseline(blurry, base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "recall") {
		t.Fatalf("recall regression not caught: %v", err)
	}

	// The fp16 floor is absolute (when the tier was measured): 0.99 over
	// 2000 slots is 20 misses, ~13σ past the floor's binomial allowance
	// (expectation 2 + 2σ ≈ 5).
	halfBroken := bench()
	halfBroken.FP16QPS = 900
	halfBroken.RecallFP16 = 0.99
	err = CheckTopKBaseline(halfBroken, base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "fp16 recall") {
		t.Fatalf("fp16 floor not enforced: %v", err)
	}
	// A single missed slot at tiny scale is within the allowance (one
	// boundary tie is indistinguishable from correct behavior).
	tied := bench()
	tied.Queries, tied.TopK = 30, 5
	tied.FP16QPS = 900
	tied.RecallFP16 = 1 - 1.0/150
	if err := CheckTopKBaseline(tied, base, 0.25); err != nil {
		t.Fatalf("single tie rejected: %v", err)
	}
	// At bench scale the allowance tracks the floor's sampling noise:
	// slots/1000 + 2σ misses pass, one more fails.
	allowed := fp16MissAllowance(2000)
	atEdge := bench()
	atEdge.FP16QPS = 900
	atEdge.RecallFP16 = 1 - float64(allowed)/2000
	if err := CheckTopKBaseline(atEdge, base, 0.25); err != nil {
		t.Fatalf("at-allowance run rejected: %v", err)
	}
	overEdge := bench()
	overEdge.FP16QPS = 900
	overEdge.RecallFP16 = 1 - float64(allowed+1)/2000
	err = CheckTopKBaseline(overEdge, base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "fp16 recall") {
		t.Fatalf("over-allowance run accepted: %v", err)
	}

	if err := CheckTopKBaseline(bench(), base, -1); err == nil {
		t.Fatal("negative tolerance accepted")
	}

	// The batch gate reads the sweep's size-32 point as a same-run ratio:
	// a collapse there fails, other sizes do not gate, and a baseline
	// written before the sweep existed gates nothing.
	swept := bench()
	swept.Batch = []BatchPoint{{Size: 4, Speedup: 2}, {Size: batchGateSize, Speedup: 3}}
	flat := bench()
	flat.Batch = []BatchPoint{{Size: 4, Speedup: 0.5}, {Size: batchGateSize, Speedup: 2.5}}
	if err := CheckTopKBaseline(flat, swept, 0.25); err != nil {
		t.Fatalf("in-tolerance batch speedup rejected: %v", err)
	}
	flat.Batch[1].Speedup = 1.2
	err = CheckTopKBaseline(flat, swept, 0.25)
	if err == nil || !strings.Contains(err.Error(), "batch(32) speedup") {
		t.Fatalf("batch speedup regression not caught: %v", err)
	}
	if err := CheckTopKBaseline(flat, base, 0.25); err != nil {
		t.Fatalf("baseline without a batch sweep gated one: %v", err)
	}
}

// TestRunTopKSmallEndToEnd runs the whole serving benchmark on a tiny
// graph: the report must be internally consistent, the shard sweep must
// cover the requested points (the bit-for-bit exact comparison is an
// error inside RunTopK, so returning at all proves it), and the JSON
// round trip must preserve the gate's inputs.
func TestRunTopKSmallEndToEnd(t *testing.T) {
	b, err := RunTopK(TopKOptions{
		N: 600, D: 20, K: 8, Seed: 1, Queries: 30, TopK: 5,
		ShardPoints: []int{1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 600 || b.Queries != 30 || b.TopK != 5 {
		t.Fatalf("report shape %+v", b)
	}
	if b.RecallFullProbe < minFullProbeRecall {
		t.Fatalf("full-probe recall %v made it into a successful report", b.RecallFullProbe)
	}
	if len(b.Sharding) != 2 || b.Sharding[0].Shards != 1 || b.Sharding[1].Shards != 3 {
		t.Fatalf("sharding sweep %+v", b.Sharding)
	}
	for _, p := range b.Sharding {
		if p.ExactQPS <= 0 || p.IVFQPS <= 0 {
			t.Fatalf("degenerate sweep point %+v", p)
		}
	}

	if len(b.Batch) != len(batchSweepSizes) {
		t.Fatalf("batch sweep %+v", b.Batch)
	}
	for i, p := range b.Batch {
		if p.Size != batchSweepSizes[i] || p.BatchQPS <= 0 || p.SinglesQPS <= 0 || p.Speedup <= 0 || p.AllocsPerMember <= 0 {
			t.Fatalf("degenerate batch point %+v", p)
		}
	}
	if e := b.Env; e == nil || e.Cores < 1 || e.GOMAXPROCS < 1 || e.Go == "" || e.Kernels["dot"] == "" {
		t.Fatalf("env stamp %+v", b.Env)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteJSON(path, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON[TopKBench](path)
	if err != nil {
		t.Fatal(err)
	}
	if back.IVFQPS != b.IVFQPS || back.RecallAtK != b.RecallAtK || len(back.Sharding) != len(b.Sharding) ||
		len(back.Batch) != len(b.Batch) || back.Env == nil || back.Env.Go != b.Env.Go {
		t.Fatalf("JSON round trip changed the report: %+v vs %+v", back, b)
	}
	// A fresh run gates cleanly against itself.
	if err := CheckTopKBaseline(b, back, 0.0); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
}
