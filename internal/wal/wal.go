// Package wal makes the admission engine durable: an append-only
// write-ahead log of admission outcomes (internal/engine's Journal
// hook) plus periodic snapshots of the live state, from which recovery
// reconstructs the exact pre-crash engine — live table, residual
// floats and all — verified by state-fingerprint equality.
//
// The log records *outcomes*, not inputs: an admitted record carries
// the full request and the realised solution, so replay re-installs
// the logged trees verbatim (engine.Replay) instead of
// re-running planners. That makes recovery independent of planner,
// policy, worker count and any algorithmic change shipped between
// crash and restart — the log is the state, not a workload to re-run.
//
// Layout: a log directory holds segment files `wal-%016x.seg` (named
// by the LSN of their first record; fixed-size rotation) and snapshot
// files `snap-%016x.json` (named by the LSN they cover). Records are
// length-prefixed, CRC-checksummed JSON frames (codec.go); snapshots
// are a single such frame. A crash can tear the tail of the newest
// segment — Open cuts the tail back to the last valid record and
// reports it — while damage anywhere else fails recovery with a typed
// error (ErrLogCorrupt / ErrLogTruncated) rather than silently
// skipping records.
//
// Durability contract: the engine appends on its writer goroutine, its
// committer goroutine calls Barrier (one fsync for every record
// appended before the call) and only then releases the acks of the
// operations those records describe — "acked implies logged". The
// fsync runs outside the log mutex, so Append, ShouldSnapshot and
// LastLSN never wait for the disk and the writer keeps appending while
// a barrier is in flight. The first append/sync failure is sticky: the
// log refuses further writes, the engine surfaces ErrDurability, and
// the process restarts into recovery.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nfvmcast/internal/obs"
)

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 4 << 20

// DefaultSnapshotEvery is the snapshot cadence hint when
// Options.SnapshotEvery is zero: ShouldSnapshot turns true after this
// many records since the last snapshot.
const DefaultSnapshotEvery = 1024

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".json"
)

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this
	// size (checked before each append, so records never split across
	// segments). 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// SnapshotEvery is the cadence hint consumed by ShouldSnapshot:
	// how many records may accumulate before the owner should write a
	// snapshot. 0 selects DefaultSnapshotEvery; negative disables the
	// hint.
	SnapshotEvery int
	// NoSync skips the fsync in Barrier — only for tests and
	// benchmarks that measure the non-sync path; a production log
	// without fsync does not survive power loss.
	NoSync bool
	// Obs receives the log's instruments (nil disables them).
	Obs *obs.WALObs
}

// Log is one append-only write-ahead log directory. Appends arrive
// from a single goroutine at a time (the engine's writer); Barrier may
// be called from other goroutines (the engine's committer, Snapshot)
// and overlaps appends. Replay runs before the engine takes traffic.
// mu guards the bookkeeping and the active segment's identity and is
// never held across a barrier's fsync — only a rotation (once per
// SegmentBytes) syncs under it; syncMu serialises barriers among
// themselves, so one that finds nothing new to sync can rely on its
// predecessor having finished.
type Log struct {
	dir  string
	opts Options

	// syncFile is the fsync (a field so tests can park or fail it).
	syncFile func(*os.File) error

	syncMu sync.Mutex // held for a whole Barrier; taken before mu

	mu         sync.Mutex
	f          *os.File // active segment
	segPath    string
	segStart   uint64 // first LSN the active segment holds (or will)
	segBytes   int64
	segCount   int
	lastLSN    uint64 // last LSN assigned (appended, not necessarily synced)
	durableLSN uint64 // every record up to here has been synced
	snapLSN    uint64 // LSN covered by the newest snapshot on disk
	sinceSnap  int    // records appended since the newest snapshot
	tailErr    error  // the torn tail Open cut, if any (typed)
	err        error  // sticky append/sync failure
	buf        []byte // frame scratch
}

// Open opens (or creates) the log directory, scans the segment chain,
// cuts a torn tail off the newest segment if a crash left one (the
// typed cause is kept for TailError and ReplayStats), and positions
// the log to append after the last valid record.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{dir: dir, opts: opts, syncFile: (*os.File).Sync}

	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	snaps, err := l.snapshots()
	if err != nil {
		return nil, err
	}
	if len(snaps) > 0 {
		l.snapLSN = snaps[len(snaps)-1]
	}

	if len(segs) == 0 {
		// Fresh log — or one whose segments were all collected into a
		// snapshot; either way the next record follows what is known.
		l.lastLSN = l.snapLSN
		l.segStart = l.lastLSN + 1
		if err := l.createSegment(l.segStart); err != nil {
			return nil, err
		}
		l.segCount = 1
		l.observeOpen()
		return l, nil
	}

	// Validate the chain shape: each segment's name must announce the
	// LSN that follows the previous segment's records. The full record
	// walk happens in Replay; here the last segment is scanned to find
	// the append position (and cut a torn tail).
	last := segs[len(segs)-1]
	lastPath := l.segmentPath(last)
	data, err := os.ReadFile(lastPath)
	if err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", lastPath, err)
	}
	validEnd := 0
	lsn := last - 1
	for validEnd < len(data) {
		rec, next, rerr := readFrame(data, validEnd)
		if rerr != nil {
			l.tailErr = fmt.Errorf("%s: %w", filepath.Base(lastPath), rerr)
			break
		}
		if rec.LSN != lsn+1 {
			return nil, fmt.Errorf("%w: %s: record lsn %d follows %d",
				ErrLogCorrupt, filepath.Base(lastPath), rec.LSN, lsn)
		}
		lsn = rec.LSN
		validEnd = next
	}
	if l.tailErr != nil {
		if err := os.Truncate(lastPath, int64(validEnd)); err != nil {
			return nil, fmt.Errorf("wal: cut torn tail of %s: %w", lastPath, err)
		}
	}

	f, err := os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s for append: %w", lastPath, err)
	}
	l.f = f
	l.segPath = lastPath
	l.segStart = last
	l.segBytes = int64(validEnd)
	l.segCount = len(segs)
	l.lastLSN = lsn
	if l.snapLSN > l.lastLSN {
		// The snapshot is ahead of every surviving record (segments
		// after it were lost): the snapshot state is authoritative.
		l.lastLSN = l.snapLSN
	}
	l.observeOpen()
	return l, nil
}

// observeOpen finishes Open: what survived on disk is as durable as it
// will get, so the first barrier only owes what is appended from here.
func (l *Log) observeOpen() {
	l.durableLSN = l.lastLSN
	l.opts.Obs.Rotated(l.segCount) // sets the segment gauge
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// LastLSN returns the LSN of the most recently appended (or recovered)
// record.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// TailError returns the typed framing error of the torn tail Open cut
// off the newest segment, or nil when the log closed cleanly. The tail
// never contains an acked record — acks wait for Barrier — so a
// non-nil TailError is expected after a crash, not a data-loss signal.
func (l *Log) TailError() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailErr
}

// Err returns the sticky append/sync failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// ShouldSnapshot reports whether at least SnapshotEvery records have
// accumulated since the last snapshot — the owner's cue to call
// Snapshot. (A hint, not a trigger: snapshotting needs the engine,
// which the log does not hold.)
func (l *Log) ShouldSnapshot() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.SnapshotEvery > 0 && l.sinceSnap >= l.opts.SnapshotEvery
}

// Append assigns the next LSN to rec and writes its frame to the
// active segment. The record is NOT durable until the next Barrier.
// Errors are sticky: after the first failure every Append and Barrier
// fails, so a durability gap can never reopen silently.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return 0, err
		}
	}
	rec.LSN = l.lastLSN + 1
	buf, err := appendFrame(l.buf[:0], rec)
	l.buf = buf
	if err != nil {
		l.err = err
		return 0, err
	}
	if _, werr := l.f.Write(buf); werr != nil {
		l.err = fmt.Errorf("wal: append lsn=%d: %w", rec.LSN, werr)
		return 0, l.err
	}
	l.lastLSN = rec.LSN
	l.segBytes += int64(len(buf))
	l.sinceSnap++
	l.opts.Obs.Appended(rec.LSN, len(buf))
	return rec.LSN, nil
}

// Barrier makes every record appended before the call durable. It
// captures the active segment and the last LSN under the mutex and
// fsyncs outside it, so appends proceed while the disk works; records
// appended meanwhile are the next barrier's. Older segments need no
// sync here: a rotation syncs the segment it seals. If a rotation seals
// the captured segment while this sync is in flight, the sync either
// still lands on the open descriptor or finds it closed — and then the
// rotation's own sync already covered every captured record.
func (l *Log) Barrier() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	f, path, lsn := l.f, l.segPath, l.lastLSN
	err, clean := l.err, lsn <= l.durableLSN
	l.mu.Unlock()
	if err != nil || clean {
		return err
	}
	start := time.Now()
	var serr error
	if !l.opts.NoSync {
		serr = l.syncFile(f)
	}
	took := time.Since(start)

	l.mu.Lock()
	defer l.mu.Unlock()
	if serr != nil && errors.Is(serr, os.ErrClosed) && l.f != f && l.err == nil {
		serr = nil // sealed, and synced, by a rotation
	}
	if serr != nil && l.err == nil {
		l.err = fmt.Errorf("wal: sync %s: %w", path, serr)
	}
	if l.err != nil {
		return l.err
	}
	if lsn > l.durableLSN {
		l.durableLSN = lsn
	}
	l.opts.Obs.Fsynced(lsn, took)
	return nil
}

// rotateLocked seals the active segment — syncing whatever no barrier
// has covered yet, so a sealed segment is always durable — and starts a
// new one named by the next LSN. Caller holds l.mu.
func (l *Log) rotateLocked() error {
	if l.lastLSN > l.durableLSN && !l.opts.NoSync {
		if err := l.syncFile(l.f); err != nil {
			return fmt.Errorf("wal: sync %s before rotation: %w", l.segPath, err)
		}
		l.durableLSN = l.lastLSN
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", l.segPath, err)
	}
	if err := l.createSegment(l.lastLSN + 1); err != nil {
		return err
	}
	l.segCount++
	l.opts.Obs.Rotated(l.segCount)
	return nil
}

// createSegment creates and opens wal-<firstLSN>.seg for append and
// syncs the directory so the file itself survives a crash.
func (l *Log) createSegment(firstLSN uint64) error {
	path := l.segmentPath(firstLSN)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.f = f
	l.segPath = path
	l.segStart = firstLSN
	l.segBytes = 0
	if !l.opts.NoSync {
		if err := syncDir(l.dir); err != nil {
			return err
		}
	}
	return nil
}

// Close seals the log (final sync). The log must not be used after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	var first error
	if l.lastLSN > l.durableLSN && !l.opts.NoSync {
		first = l.syncFile(l.f)
	}
	if cerr := l.f.Close(); first == nil {
		first = cerr
	}
	l.f = nil
	if first != nil && l.err == nil {
		l.err = first
	}
	return first
}

// segmentPath names the segment whose first record is firstLSN.
func (l *Log) segmentPath(firstLSN uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix))
}

// snapshotPath names the snapshot covering up to lsn.
func (l *Log) snapshotPath(lsn uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix))
}

// segments lists the segment chain's first-LSNs, ascending.
func (l *Log) segments() ([]uint64, error) {
	return l.scanDir(segPrefix, segSuffix)
}

// snapshots lists the snapshot LSNs, ascending.
func (l *Log) snapshots() ([]uint64, error) {
	return l.scanDir(snapPrefix, snapSuffix)
}

func (l *Log) scanDir(prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list dir: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		v, perr := strconv.ParseUint(hex, 16, 64)
		if perr != nil {
			continue // foreign file; leave it alone
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("wal: sync dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: close dir: %w", cerr)
	}
	return nil
}

// writeFramed writes one [len][crc][payload] frame as the whole
// content of path, via temp file + rename (atomic replacement).
func writeFramed(dir, path string, payload []byte, noSync bool) error {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("wal: temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = tmp.Close(); _ = os.Remove(tmpName) }
	if _, err := tmp.Write(hdr[:]); err != nil {
		cleanup()
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	if _, err := tmp.Write(payload); err != nil {
		cleanup()
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	if !noSync {
		if err := tmp.Sync(); err != nil {
			cleanup()
			return fmt.Errorf("wal: sync %s: %w", path, err)
		}
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("wal: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("wal: rename %s: %w", path, err)
	}
	if noSync {
		return nil
	}
	return syncDir(dir)
}

// readFramed reads a file written by writeFramed and verifies its
// frame, returning the payload.
func readFramed(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < frameHeaderSize {
		return nil, fmt.Errorf("%w: %s: %d byte file", ErrLogTruncated, filepath.Base(path), len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	sum := binary.LittleEndian.Uint32(data[4:8])
	if n != len(data)-frameHeaderSize {
		return nil, fmt.Errorf("%w: %s: header says %d payload bytes, file holds %d",
			ErrLogTruncated, filepath.Base(path), n, len(data)-frameHeaderSize)
	}
	payload := data[frameHeaderSize:]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: %s: checksum mismatch (stored %08x, computed %08x)",
			ErrLogCorrupt, filepath.Base(path), sum, got)
	}
	return payload, nil
}
