package engine

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"pane/internal/wal"
)

// The fencing tests pin the epoch machinery in isolation: a fenced
// engine refuses writes but keeps serving reads, promotion advances the
// epoch (and stamps it into the WAL), and replicated records from a
// deposed lineage are rejected even when their version would fit.

func TestFenceRefusesWritesKeepsReads(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(trainBase(t, dir), patching()...)
	if err != nil {
		t.Fatal(err)
	}
	applyWALUpdate(t, eng, 1)
	before := eng.Version()

	if eng.Deposed() {
		t.Fatal("fresh engine reports deposed")
	}
	eng.Fence(3)
	if !eng.Deposed() {
		t.Fatal("engine not deposed after observing epoch 3")
	}
	// Fencing is monotonic: observing an older epoch cannot un-depose.
	eng.Fence(1)
	if !eng.Deposed() {
		t.Fatal("Fence(1) un-deposed an engine that observed epoch 3")
	}

	edges, attrs := walUpdate(2)
	if edges != nil {
		_, err = eng.ApplyEdges(edges)
	} else {
		_, err = eng.ApplyAttrs(attrs)
	}
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("write on a deposed engine: err = %v, want ErrFenced", err)
	}
	if eng.Version() != before {
		t.Fatalf("rejected write still advanced version %d -> %d", before, eng.Version())
	}
	// Reads stay live in degraded mode.
	if res := eng.Model().Execute([]Query{{Op: OpTopLinks, Src: 0}}); res[0].Err != "" {
		t.Fatalf("read on a deposed engine: %s", res[0].Err)
	}
}

func TestPromoteAdvancesEpochAndStampsWAL(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(trainBase(t, dir), patching()...)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := eng.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	applyWALUpdate(t, eng, 1)

	if err := eng.Promote(0); err == nil {
		t.Fatal("Promote(0) accepted — epoch did not advance")
	}
	eng.Fence(2)
	if err := eng.Promote(2); err == nil {
		t.Fatal("promotion to an already-observed epoch accepted")
	}
	if err := eng.Promote(3); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 3 || eng.Deposed() {
		t.Fatalf("after Promote(3): epoch %d deposed %v", eng.Epoch(), eng.Deposed())
	}

	// Writes work again and carry the new epoch into the log.
	applyWALUpdate(t, eng, 2)
	if got := log.LastEpoch(); got != 3 {
		t.Fatalf("log epoch after promoted write = %d, want 3", got)
	}
	recs, err := log.ReadFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantEpochs := []uint32{0, 3}
	if len(recs) != len(wantEpochs) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantEpochs))
	}
	for i, rec := range recs {
		if rec.Epoch != wantEpochs[i] {
			t.Fatalf("record %d epoch = %d, want %d", i, rec.Epoch, wantEpochs[i])
		}
	}
}

func TestApplyRecordEpochSemantics(t *testing.T) {
	dir := t.TempDir()
	base := trainBase(t, dir)

	// A leader across a promotion produces the record stream a follower
	// replays: epochs [0, 0, 2, 2].
	leader, err := Open(base, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := leader.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	applyWALUpdate(t, leader, 1)
	applyWALUpdate(t, leader, 2)
	if err := leader.Promote(2); err != nil {
		t.Fatal(err)
	}
	applyWALUpdate(t, leader, 3)
	applyWALUpdate(t, leader, 4)
	recs, err := log.ReadFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A follower replaying the stream adopts the new epoch mid-stream and
	// converges bit-identically.
	follower, err := Open(base, patching()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := follower.ApplyRecord(rec); err != nil {
			t.Fatalf("replaying record v%d epoch %d: %v", rec.Version, rec.Epoch, err)
		}
	}
	if follower.Epoch() != 2 {
		t.Fatalf("follower epoch after replay = %d, want 2", follower.Epoch())
	}
	if !bytes.Equal(bundleBytes(t, follower), bundleBytes(t, leader)) {
		t.Fatal("follower diverges from leader across the epoch boundary")
	}

	// A record from a deposed epoch is refused even though its version
	// extends the model.
	stale := recs[len(recs)-1]
	stale.Version = follower.Version() + 1
	stale.Epoch = 1
	if _, err := follower.ApplyRecord(stale); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-epoch record: err = %v, want ErrFenced", err)
	}
}
