package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func updateBench() *UpdateBench {
	return &UpdateBench{
		N: 2000, D: 30, K: 16, Shards: 2,
		IncrementalRefreshes: 8, FullRebuilds: 2,
		AffinityIncremental: 6, AffinityFull: 1,
		Points: []UpdatePoint{
			{DeltaEdges: 10, SpeedupModel: 30, SpeedupIndex: 20, SpeedupTotal: 4},
			{DeltaEdges: 100, SpeedupModel: 15, SpeedupIndex: 10, SpeedupTotal: 3},
		},
	}
}

func TestCheckUpdateBaselinePasses(t *testing.T) {
	base := updateBench()
	cur := updateBench()
	cur.Points[0].SpeedupIndex = 16 // -20%, within 25%
	cur.Points[1].SpeedupTotal = 2.5
	if err := CheckUpdateBaseline(cur, base, 0.25); err != nil {
		t.Fatalf("in-tolerance run rejected: %v", err)
	}
	// A point the baseline never measured is not compared.
	cur.Points = append(cur.Points, UpdatePoint{DeltaEdges: 9999, SpeedupIndex: 0.1, SpeedupTotal: 0.1})
	if err := CheckUpdateBaseline(cur, base, 0.25); err != nil {
		t.Fatalf("unmatched point compared: %v", err)
	}
}

func TestCheckUpdateBaselineCatchesRegressions(t *testing.T) {
	base := updateBench()
	cur := updateBench()
	cur.Points[0].SpeedupIndex = 5 // -75%
	err := CheckUpdateBaseline(cur, base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "index speedup") {
		t.Fatalf("index regression not caught: %v", err)
	}
	cur = updateBench()
	cur.Points[1].SpeedupModel = 5 // -67%
	err = CheckUpdateBaseline(cur, base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "model speedup") {
		t.Fatalf("model regression not caught: %v", err)
	}
	cur = updateBench()
	cur.IncrementalRefreshes = 0
	if err := CheckUpdateBaseline(cur, base, 0.25); err == nil {
		t.Fatal("dead incremental pipeline not caught")
	}
	cur = updateBench()
	cur.AffinityIncremental = 0
	if err := CheckUpdateBaseline(cur, base, 0.25); err == nil {
		t.Fatal("dead model-side delta path not caught")
	}
	// A delta-set drift (no matching points at all) must fail, not pass
	// vacuously.
	cur = updateBench()
	for i := range cur.Points {
		cur.Points[i].DeltaEdges += 7
	}
	err = CheckUpdateBaseline(cur, base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "compared no points") {
		t.Fatalf("vacuous gate not caught: %v", err)
	}
	if err := CheckUpdateBaseline(updateBench(), base, -1); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

// TestRunUpdateSmoke runs the whole sweep on a small graph: the report
// must round-trip through JSON, and its internal integrity checks (all
// cycles incremental, refreshed index equals a fresh build) must hold.
func TestRunUpdateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("update sweep in -short mode")
	}
	b, err := RunUpdate(UpdateOptions{
		N: 1500, D: 30, K: 16, Threads: 2, Seed: 7, Shards: 2,
		Deltas: []int{5, 25}, Repeats: 1, Queries: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Points) != 2 || b.Points[0].DirtyRows == 0 {
		t.Fatalf("report %+v", b)
	}
	if b.IncrementalRefreshes == 0 || b.FullRebuilds != 2 {
		t.Fatalf("counters %+v", b)
	}
	if b.AffinityIncremental == 0 || b.AffinityFull == 0 {
		t.Fatalf("affinity counters %+v", b)
	}
	if b.AttrEntries == 0 || b.AttrRecall < 0.999 {
		t.Fatalf("attr phase %+v", b)
	}
	for _, p := range b.Points {
		sum := p.IncrGraphSeconds + p.IncrAffinitySeconds + p.IncrCCDSeconds + p.IncrScorerSeconds
		if p.IncrGraphSeconds <= 0 || p.IncrCCDSeconds <= 0 || sum > p.IncrModelSeconds {
			t.Fatalf("Δ=%d engine stages %+v do not fit inside model time %.9f", p.DeltaEdges, p, p.IncrModelSeconds)
		}
	}
	if a := b.Ack; a.Count < 30 || a.GraphMs <= 0 || a.AffinityMs <= 0 || a.CCDMs <= 0 || a.SumMs < a.GraphMs {
		t.Fatalf("ack breakdown %+v", a)
	}
	// An 8-edge update dirties at most 16 rows, each encoded once per
	// compressed cell the run builds; it copies pages and lists, not blocks.
	if a := b.Ack; a.RefreshMs <= 0 || a.RefreshBytes <= 0 || a.RefreshRowsEncoded <= 0 || a.RefreshRowsEncoded > 16*4 {
		t.Fatalf("refresh books in the ack breakdown %+v", a)
	}
	var buf bytes.Buffer
	PrintUpdate(&buf, b)
	if !strings.Contains(buf.String(), "Update-to-fresh-index") {
		t.Fatalf("print output:\n%s", buf.String())
	}
	path := filepath.Join(t.TempDir(), "u.json")
	if err := WriteJSON(path, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON[UpdateBench](path)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckUpdateBaseline(back, b, 0.0); err != nil {
		t.Fatalf("round-tripped report fails its own gate: %v", err)
	}
}
