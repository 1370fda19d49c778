package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func replicateBench() *ReplicateBench {
	return &ReplicateBench{
		N: 2000, D: 30, K: 16, Backlog: 200, BatchEdges: 4,
		Append: []AppendPoint{
			{Policy: "always", Records: 100, RecordsPerSec: 500},
			{Policy: "interval", Records: 100, RecordsPerSec: 20000},
			{Policy: "none", Records: 100, RecordsPerSec: 40000},
		},
		SyncFreeSpeedup:     80,
		ReplaySeconds:       0.5,
		ReplayRecordsPerSec: 400,
		SnapshotSeconds:     0.2,
		CrossoverRecords:    80,
		RecallVsLeader:      1,
	}
}

func TestCheckReplicateBaselinePasses(t *testing.T) {
	base := replicateBench()
	cur := replicateBench()
	cur.SyncFreeSpeedup = 50 // -37%, within 50%
	cur.CrossoverRecords = 50
	if err := CheckReplicateBaseline(cur, base, 0.5); err != nil {
		t.Fatalf("in-tolerance run rejected: %v", err)
	}
}

func TestCheckReplicateBaselineCatchesRegressions(t *testing.T) {
	base := replicateBench()
	cur := replicateBench()
	cur.SyncFreeSpeedup = 10 // -87%
	err := CheckReplicateBaseline(cur, base, 0.5)
	if err == nil || !strings.Contains(err.Error(), "sync-free") {
		t.Fatalf("append-speedup regression not caught: %v", err)
	}
	cur = replicateBench()
	cur.CrossoverRecords = 10 // replay got 8x relatively slower
	err = CheckReplicateBaseline(cur, base, 0.5)
	if err == nil || !strings.Contains(err.Error(), "record replay regressed") {
		t.Fatalf("replay regression not caught: %v", err)
	}
	cur = replicateBench()
	cur.CrossoverRecords = 800 // bundle path got 10x relatively slower
	err = CheckReplicateBaseline(cur, base, 0.5)
	if err == nil || !strings.Contains(err.Error(), "bundle catch-up regressed") {
		t.Fatalf("bundle regression not caught: %v", err)
	}
	if err := CheckReplicateBaseline(&ReplicateBench{}, base, 0.5); err == nil {
		t.Fatal("empty report accepted")
	}
	if err := CheckReplicateBaseline(replicateBench(), base, -1); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

// TestRunReplicateSmoke runs the whole experiment small: append sweep,
// record-replay catch-up, bundle bootstrap, recall floor, and the JSON
// round trip must all hold together.
func TestRunReplicateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("replication bench in -short mode")
	}
	b, err := RunReplicate(ReplicateOptions{
		N: 1000, D: 20, K: 16, Threads: 2, Seed: 7,
		Backlog: 60, BatchEdges: 2, AppendRecords: 50, Queries: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Append) != 3 || b.Append[0].Policy != "always" || b.Append[2].Policy != "none" {
		t.Fatalf("append sweep %+v", b.Append)
	}
	for _, p := range b.Append {
		if p.RecordsPerSec <= 0 {
			t.Fatalf("policy %s throughput %+v", p.Policy, p)
		}
	}
	if b.ReplayRecordsPerSec <= 0 || b.SnapshotSeconds <= 0 || b.CrossoverRecords <= 0 {
		t.Fatalf("catch-up numbers %+v", b)
	}
	if b.RecallVsLeader < 0.999 {
		t.Fatalf("recall %v", b.RecallVsLeader)
	}
	var buf bytes.Buffer
	PrintReplicate(&buf, b)
	if !strings.Contains(buf.String(), "crossover") {
		t.Fatalf("print output:\n%s", buf.String())
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := WriteJSON(path, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON[ReplicateBench](path)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckReplicateBaseline(back, b, 0.0); err != nil {
		t.Fatalf("round-tripped report fails its own gate: %v", err)
	}
}
