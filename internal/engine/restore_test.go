package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pane/internal/graph"
	"pane/internal/index"
	"pane/internal/mat"
	"pane/internal/store"
)

// sameEveryMode asserts that got answers every probe as want does in
// each of modes (the inverted ones at their default probe count), links
// and attributes, ids and score bits, from the cell each mode names.
func sameEveryMode(t *testing.T, label string, want, got *Engine, probes []int, modes []string) {
	t.Helper()
	for _, u := range probes {
		for _, mode := range modes {
			for _, links := range []bool{true, false} {
				w, g := mustTop(t, want, links, u, 10, mode, 0), mustTop(t, got, links, u, 10, mode, 0)
				if g.Backend != mode || g.Version != w.Version {
					t.Fatalf("%s u=%d mode %s: backend %q version %d, want %q version %d",
						label, u, mode, g.Backend, g.Version, mode, w.Version)
				}
				sameAnswers(t, label+" "+mode, w, g)
			}
		}
	}
}

// snapshotRestoreRoundTrip snapshots eng, restores it — the restored
// engine builds its cells from the model alone, as a fresh engine does —
// and checks that it reports eng's index configuration, answers as eng
// does in every one of modes, re-snapshots to the same bundle byte for
// byte, and still agrees with eng after the same update.
func snapshotRestoreRoundTrip(t *testing.T, eng *Engine, modes []string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "model.pane")
	if _, err := eng.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	restored.WaitForIndex()
	if got, want := restored.IndexStatus(), eng.IndexStatus(); got.IVF != want.IVF ||
		got.Quantize != want.Quantize || got.FP16 != want.FP16 || got.Shards != want.Shards {
		t.Fatalf("restored status %+v, want %+v", got, want)
	}
	var probes []int
	for u := 0; u < eng.Model().Nodes(); u += 11 {
		probes = append(probes, u)
	}
	sameEveryMode(t, "restored", eng, restored, probes, modes)

	path2 := filepath.Join(dir, "again.pane")
	if _, err := restored.Snapshot(path2); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-snapshotting the restored engine changed the bundle")
	}

	edges := []graph.Edge{{Src: 2, Dst: 3}, {Src: 5, Dst: 90}}
	for _, e := range []*Engine{eng, restored} {
		if _, err := e.ApplyEdges(edges); err != nil {
			t.Fatal(err)
		}
		e.WaitForIndex()
	}
	sameEveryMode(t, "updated", eng, restored, probes, modes)
}

// TestQuantizedSnapshotRestoreRoundTrip: an engine serving the float64 and
// int8 tiers in three shards round-trips through a snapshot in its four
// modes.
func TestQuantizedSnapshotRestoreRoundTrip(t *testing.T) {
	eng := quantEngine(t, 3)
	if st := eng.IndexStatus(); !st.IVF || !st.Quantize || st.FP16 || st.Shards != 3 {
		t.Fatalf("status %+v", st)
	}
	snapshotRestoreRoundTrip(t, eng, []string{ModeExact, ModeSQ8, ModeIVF, ModeIVFSQ})
}

// TestFP16SnapshotRestoreRoundTrip: an engine serving every tier in three
// shards round-trips through a snapshot in all six modes.
func TestFP16SnapshotRestoreRoundTrip(t *testing.T) {
	eng := fp16Engine(t, 3)
	if st := eng.IndexStatus(); !st.IVF || !st.Quantize || !st.FP16 || st.Shards != 3 {
		t.Fatalf("status %+v", st)
	}
	snapshotRestoreRoundTrip(t, eng, allModes)
}

// quantizeRows is the int8 payload older writers stored for rows: per
// row, codes c ∈ [−128, 127] row-major and (scale, base) with row[j] ≈
// base + scale·c[j], the per-row encoding the index's cells hold.
func quantizeRows(rows *mat.Dense) (codes []int8, scale, base []float32) {
	codes, scale, base = make([]int8, len(rows.Data)), make([]float32, rows.Rows), make([]float32, rows.Rows)
	for i := range rows.Rows {
		row := rows.Row(i)
		mn, mx := slices.Min(row), slices.Max(row)
		s := float32((mx - mn) / 255)
		scale[i], base[i] = s, float32(mn)
		if s == 0 {
			continue
		}
		base[i] = float32(mn + float64(128*float64(s)))
		inv := 1 / float64(s)
		for j, v := range row {
			codes[i*rows.Cols+j] = int8(int(min(max(math.Round((v-mn)*inv), 0), 255)) - 128)
		}
	}
	return codes, scale, base
}

// TestRestoreIgnoresCorruptPayload: a format-5 bundle may carry the int8
// and binary16 codes of its candidate matrices, as older writers stored
// them. Here the link space's int8 payload is the true encoding except
// that each probe's true top-1 row has (scale, base) = (0, ∓1e6), which
// bounds that row's score far below its true one — a scan that trusted
// those bytes would rule it out. The restored engine encodes its cells
// from the model, so it answers every probe as the live engine does in
// all six modes, ids and score bits.
func TestRestoreIgnoresCorruptPayload(t *testing.T) {
	eng := fp16Engine(t, 2)
	m := eng.Model()
	var probes []int
	for u := 0; u < m.Nodes(); u += 7 {
		probes = append(probes, u)
	}
	var buf bytes.Buffer
	if err := store.WriteBundle(&buf, &store.Bundle{
		ModelVersion: m.Version, Cfg: m.Cfg,
		Xf: m.Emb.Xf, Xb: m.Emb.Xb, Y: m.Emb.Y,
		Adj: m.Graph.Adj, Attr: m.Graph.Attr, Labels: m.Graph.Labels,
		Index: &store.IndexMeta{IVF: true, NList: 3, NProbe: 3, Quantize: true, FP16: true, Shards: 2},
	}); err != nil {
		t.Fatal(err)
	}
	// The bundle ends with its two payload presence words; write both
	// payloads in their place.
	out := bytes.NewBuffer(buf.Bytes()[:buf.Len()-16])
	put := func(v any) {
		if err := binary.Write(out, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	spaces := []*mat.Dense{m.Scorer.TransformedCandidatesRange(0, m.Nodes(), 1), m.Emb.Y}
	put(uint64(1))
	for sp, rows := range spaces {
		codes, scale, base := quantizeRows(rows)
		if sp == linkSpace {
			for _, u := range probes {
				top := mustTop(t, eng, true, u, 1, ModeExact, 0).Results[0].ID
				sum := 0.0
				for _, x := range m.Emb.Xf.Row(u) {
					sum += x
				}
				scale[top], base[top] = 0, 1e6
				if sum > 0 {
					base[top] = -1e6
				}
			}
		}
		put([]uint64{uint64(rows.Rows), uint64(rows.Cols)})
		put(scale)
		put(base)
		put(codes)
	}
	put(uint64(1))
	for _, rows := range spaces {
		put([]uint64{uint64(rows.Rows), uint64(rows.Cols)})
		put(index.EncodeFP16Rows(rows))
	}

	b, err := store.ReadBundle(out)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := FromBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	restored.WaitForIndex()
	sameEveryMode(t, "restored", eng, restored, probes, allModes)
}
