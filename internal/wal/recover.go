package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"nfvmcast/internal/engine"
)

// ReplayStats reports what one recovery pass did.
type ReplayStats struct {
	// SnapshotLSN is the LSN of the snapshot recovery started from (0
	// when the whole log was replayed from the beginning).
	SnapshotLSN uint64
	// SnapshotFingerprint is the state fingerprint the snapshot
	// recorded ("" without a snapshot).
	SnapshotFingerprint string
	// Records is how many log records were replayed after the
	// snapshot.
	Records int
	// LastLSN is the highest LSN recovered; subsequent appends
	// continue from it.
	LastLSN uint64
	// TailError is the typed framing error (ErrLogTruncated or
	// ErrLogCorrupt) of the torn tail Open cut off the newest segment,
	// nil for a cleanly-closed log. A torn tail is expected after a
	// crash — the cut records were never acked.
	TailError error
}

// Recover rebuilds eng from the log: the newest readable snapshot is
// installed (falling back to the previous one if the newest is
// damaged), then every record after it replays in LSN order. eng must
// be freshly built on the base topology — same substrate the original
// engine started from — with nothing admitted; replay restores logged
// outcomes verbatim and never plans. Damage anywhere but the (already
// cut) tail fails recovery with ErrLogCorrupt/ErrLogTruncated rather
// than skipping records.
//
// Recover is called after Open and before the engine takes traffic;
// the log then continues appending after the recovered LSN.
func (l *Log) Recover(eng *engine.Engine) (*ReplayStats, error) {
	stats := &ReplayStats{TailError: l.TailError()}

	// Pick the newest snapshot that reads back clean. A damaged
	// snapshot falls back to its predecessor (collect keeps one), for
	// which the record suffix is still on disk.
	snaps, err := l.snapshots()
	if err != nil {
		return nil, err
	}
	var snap *snapshotFile
	var snapErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		s, rerr := l.readSnapshot(snaps[i])
		if rerr == nil {
			snap = s
			break
		}
		if snapErr == nil {
			snapErr = rerr
		}
	}
	if snap != nil {
		if err := restoreSnapshot(eng, snap); err != nil {
			return nil, err
		}
		stats.SnapshotLSN = snap.LSN
		stats.SnapshotFingerprint = snap.Fingerprint
		stats.LastLSN = snap.LSN
	} else if snapErr != nil {
		// Every snapshot on disk is damaged. Full replay can still
		// save the day when the whole record chain survives.
		segs, serr := l.segments()
		if serr != nil {
			return nil, serr
		}
		if len(segs) == 0 || segs[0] != 1 {
			return nil, fmt.Errorf("wal: no readable snapshot and the log does not start at lsn 1: %w", snapErr)
		}
	}

	if err := l.replayRecords(eng, stats); err != nil {
		return nil, err
	}
	l.opts.Obs.Replayed(stats.Records, stats.TailError != nil)
	return stats, nil
}

// replayRecords applies every record with LSN > stats.LastLSN to eng.
func (l *Log) replayRecords(eng *engine.Engine, stats *ReplayStats) error {
	segs, err := l.segments()
	if err != nil {
		return err
	}
	next := stats.LastLSN + 1
	for i, first := range segs {
		// Skip segments the snapshot fully covers.
		if i+1 < len(segs) && segs[i+1] <= next {
			continue
		}
		path := l.segmentPath(first)
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return fmt.Errorf("wal: read %s: %w", path, rerr)
		}
		lastSeg := i == len(segs)-1
		off := 0
		expect := first
		for off < len(data) {
			rec, nextOff, ferr := readFrame(data, off)
			if ferr != nil {
				if lastSeg {
					// Open already cut the torn tail off the segment
					// it appends to; hitting one here means the log
					// was damaged between Open and Recover, or Open
					// was bypassed. Either way the cut is safe — the
					// tail was never acked — but it is reported.
					if stats.TailError == nil {
						stats.TailError = fmt.Errorf("%s: %w", filepath.Base(path), ferr)
					}
					break
				}
				return fmt.Errorf("%s (mid-chain): %w", filepath.Base(path), ferr)
			}
			if rec.LSN != expect {
				return fmt.Errorf("%w: %s: record lsn %d where %d was expected",
					ErrLogCorrupt, filepath.Base(path), rec.LSN, expect)
			}
			expect++
			off = nextOff
			if rec.LSN < next {
				continue // record predates the snapshot
			}
			if rec.LSN != next {
				// Records between the snapshot and this segment were
				// collected or lost — applying across the hole would
				// diverge silently.
				return fmt.Errorf("%w: %s: record lsn %d leaves a gap after %d",
					ErrLogCorrupt, filepath.Base(path), rec.LSN, next-1)
			}
			if aerr := l.apply(eng, rec); aerr != nil {
				return aerr
			}
			stats.Records++
			stats.LastLSN = rec.LSN
			next = rec.LSN + 1
		}
	}
	return nil
}

// apply replays one record's outcome onto eng through engine.Replay (no
// planning, no journaling, no recovery passes — the log already holds
// what those decided).
func (l *Log) apply(eng *engine.Engine, rec *Record) error {
	o, err := decodeOutcome(rec)
	if err != nil {
		return fmt.Errorf("%w: lsn %d: %v", ErrLogCorrupt, rec.LSN, err)
	}
	if err := eng.Replay(o); err != nil {
		return fmt.Errorf("wal: replay %s lsn=%d req=%d: %w", rec.Type, rec.LSN, o.ReqID, err)
	}
	return nil
}

// IsRecoverableTail reports whether err is a tail condition recovery
// tolerates (cut back to the last valid record) as opposed to
// mid-chain damage that fails it. Both classes carry the typed
// sentinels; this helper just documents the distinction for callers
// inspecting ReplayStats.TailError.
func IsRecoverableTail(err error) bool {
	return errors.Is(err, ErrLogTruncated) || errors.Is(err, ErrLogCorrupt)
}
