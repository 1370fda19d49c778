package engine

import (
	"errors"
	"fmt"
	"time"

	"pane/internal/core"
	"pane/internal/graph"
	"pane/internal/store"
	"pane/internal/wal"
)

// This file wires the engine to the write-ahead delta log and to the
// replication surfaces built on it. The contract, both directions:
//
//   - Leader: every applied update appends its delta (tagged with the
//     version it produced) to the log as soon as the graph accepts it,
//     before the model side moves (see applyLocked). A snapshot compacts
//     the log up to the version the written bundle recorded.
//   - Recovery / followers: a model at version V advanced by replaying
//     records V+1, V+2, ... through ApplyRecord reproduces the exact
//     update stream, bit for bit: the retained affinity state is a
//     function of the graph alone, so the one a restart or a follower
//     rebuilds equals the one the uncrashed writer patched.

// AttachWAL replays any log records past the engine's current version
// (so a restarted writer resumes exactly where the crashed one durably
// got to) and then arms the engine to append every subsequent update to
// l. The engine takes ownership of appends but not of the log's
// lifecycle — the caller still closes it.
//
// A log whose newest record is older than the engine's version (a crash
// under -wal-sync none/interval lost appends the last snapshot had
// already captured) is reset: its stale history cannot be extended
// contiguously, and followers it can no longer serve will fall back to
// a bundle fetch. A log whose oldest record is newer than version+1 is
// a configuration error — that bundle/log pair has a gap no replay can
// cross.
func (e *Engine) AttachWAL(l *wal.Log) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.wal.Load() != nil {
		return errors.New("engine: WAL already attached")
	}
	cur := e.Model().Version
	if first, last, ok := l.Bounds(); ok {
		switch {
		case last <= cur:
			if err := l.Reset(); err != nil {
				return err
			}
		case first > cur+1:
			return fmt.Errorf("engine: model at version %d cannot reach the log's first record %d — missing bundle?", cur, first)
		default:
			recs, err := l.ReadFrom(cur, 0)
			if err != nil {
				return err
			}
			for _, rec := range recs {
				if _, err := e.applyRecordLocked(rec); err != nil {
					return fmt.Errorf("engine: replaying record %d: %w", rec.Version, err)
				}
			}
		}
	}
	e.wal.Store(l)
	return nil
}

// ApplyRecord applies one replicated update record: the record must
// extend the current version by exactly one (the caller — replay or a
// follower — is responsible for feeding records in order and without
// gaps), and must not come from a fencing epoch older than the engine
// has already accepted — a deposed leader's record is refused with
// ErrFenced even when its version would fit, so no version is ever
// served under two epochs. A record from a *newer* epoch is the normal
// sight of a failover from the follower's side: the engine adopts the
// epoch and applies the record. Followers run their engines WAL-less,
// so nothing re-appends.
func (e *Engine) ApplyRecord(rec wal.Record) (*Model, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.applyRecordLocked(rec)
}

func (e *Engine) applyRecordLocked(rec wal.Record) (*Model, error) {
	if cur := e.Model().Version; rec.Version != cur+1 {
		return nil, fmt.Errorf("engine: record version %d does not extend model version %d", rec.Version, cur)
	}
	if own := e.epoch.Load(); rec.Epoch < own {
		e.met.fenced.Inc()
		return nil, fmt.Errorf("%w: record v%d from deposed epoch %d, engine at epoch %d",
			ErrFenced, rec.Version, rec.Epoch, own)
	} else if rec.Epoch > own {
		// Crossing a failover boundary: adopt the promoted lineage's
		// epoch before applying so the fencing check in applyLocked (and
		// every later record) sees it.
		e.epoch.Store(rec.Epoch)
		e.met.epoch.Set(float64(rec.Epoch))
		e.met.deposed.Set(0)
	}
	return e.applyLocked(rec.Edges, rec.Attrs)
}

// compactAfterSnapshot reclaims log segments the just-written bundle
// makes redundant. The watermark is the version recorded *inside the
// bundle* — never the live engine version. The two differ whenever
// updates land while the bundle is being serialized: the live version
// may be V+10 while the file on disk anchors V, and compacting at V+10
// would reclaim records V+1..V+10 that no bundle covers, losing them
// for both crash recovery and followers. TestSnapshotCompactionRace
// pins this interleaving.
func (e *Engine) compactAfterSnapshot(b *store.Bundle) error {
	if w := e.wal.Load(); w != nil {
		return w.Compact(b.ModelVersion)
	}
	return nil
}

// WAL returns the attached log, or nil. The server's /replicate handler
// streams from it.
func (e *Engine) WAL() *wal.Log { return e.wal.Load() }

// LoadBundle replaces the engine's entire model with b in one atomic
// swap — the follower's catch-up path when it has fallen too far behind
// to replay deltas. The bundle must advance the version and must keep
// the node/attribute universe (the shard layout is fixed at
// construction). Not available on a WAL-attached engine: a leader's log
// could not stay contiguous across a version jump.
func (e *Engine) LoadBundle(b *store.Bundle) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.wal.Load() != nil {
		return errors.New("engine: cannot load a bundle into a WAL-attached engine")
	}
	cur := e.Model()
	if b.ModelVersion <= cur.Version {
		return fmt.Errorf("engine: bundle version %d does not advance model version %d", b.ModelVersion, cur.Version)
	}
	if err := b.Cfg.Validate(); err != nil {
		return err
	}
	g, err := graph.FromCSR(b.Adj, b.Attr, b.Labels)
	if err != nil {
		return err
	}
	if g.N != cur.Graph.N || g.D != cur.Graph.D {
		return fmt.Errorf("engine: bundle graph %dx%d does not match serving universe %dx%d",
			g.N, g.D, cur.Graph.N, cur.Graph.D)
	}
	emb := &core.Embedding{Xf: b.Xf, Xb: b.Xb, Y: b.Y}
	if emb.Xf.Rows != g.N || emb.Y.Rows != g.D || emb.K() != b.Cfg.K {
		return fmt.Errorf("engine: bundle embedding %dx%d k=%d does not fit its graph %dx%d with config K=%d",
			emb.Xf.Rows, emb.Y.Rows, emb.K(), g.N, g.D, b.Cfg.K)
	}
	next := &Model{
		Version: b.ModelVersion,
		Cfg:     b.Cfg,
		Graph:   g,
		Emb:     emb,
		Scorer:  core.NewLinkScorer(emb),
	}
	// The retained affinity state described the replaced graph; drop it
	// so the next update rebuilds from the new one.
	e.affState = nil
	e.cur.Store(next)
	e.met.modelVersion.Set(float64(next.Version))
	e.scheduleIndexRebuild(&idxDelta{model: next, at: time.Now(), full: [nSpaces]bool{true, true}}, g.N+g.D)
	return nil
}
