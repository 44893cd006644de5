package obs

import "time"

// WALObs binds the instruments of one write-ahead log (one shard's
// segment chain in internal/wal): append/byte/fsync counters on the
// write side, replay counters on the recovery side, and the
// segment/snapshot bookkeeping. Like AdmissionObs, every method is
// nil-receiver safe so the log calls them unconditionally, and each
// hook costs one or two atomic adds.
type WALObs struct {
	appends     *Counter
	bytes       *Counter
	fsyncs      *Counter
	rotations   *Counter
	snapshots   *Counter
	replayed    *Counter
	replayFalls *Counter
	segments    *Gauge
	lastLSN     *Gauge
	durableLSN  *Gauge
	fsyncTime   *Histogram
}

// NewWALObs registers the WAL instrument set for one shard on reg
// ("" registers the unsharded series).
func NewWALObs(reg *Registry, shard string) *WALObs {
	var base []Label
	if shard != "" {
		base = []Label{L("shard", shard)}
	}
	return &WALObs{
		appends: reg.Counter("nfv_wal_appends_total",
			"Records appended to the write-ahead log.", base...),
		bytes: reg.Counter("nfv_wal_bytes_total",
			"Payload and framing bytes appended to the write-ahead log.", base...),
		fsyncs: reg.Counter("nfv_wal_fsyncs_total",
			"fsync barriers issued before acking operations.", base...),
		rotations: reg.Counter("nfv_wal_segment_rotations_total",
			"Segment files rotated out after reaching the size bound.", base...),
		snapshots: reg.Counter("nfv_wal_snapshots_total",
			"Live-table snapshots written.", base...),
		replayed: reg.Counter("nfv_wal_replayed_records_total",
			"Records replayed during recovery.", base...),
		replayFalls: reg.Counter("nfv_wal_replay_tail_truncations_total",
			"Recoveries that found (and cut) a truncated or corrupt tail.", base...),
		segments: reg.Gauge("nfv_wal_segments",
			"Live segment files in the log directory.", base...),
		lastLSN: reg.Gauge("nfv_wal_last_lsn",
			"LSN of the most recently appended record.", base...),
		durableLSN: reg.Gauge("nfv_wal_durable_lsn",
			"Last LSN a completed fsync barrier covered; nfv_wal_last_lsn minus this is what acks are waiting on.", base...),
		fsyncTime: reg.Histogram("nfv_wal_fsync_seconds",
			"Duration of each fsync barrier.", nil, base...),
	}
}

// Appended records one durable append of n framed bytes at lsn.
func (o *WALObs) Appended(lsn uint64, n int) {
	if o == nil {
		return
	}
	o.appends.Inc()
	o.bytes.Add(uint64(n))
	o.lastLSN.Set(float64(lsn))
}

// Fsynced counts one fsync barrier that made every record up to lsn
// durable and took d.
func (o *WALObs) Fsynced(lsn uint64, d time.Duration) {
	if o == nil {
		return
	}
	o.fsyncs.Inc()
	o.durableLSN.Set(float64(lsn))
	o.fsyncTime.Observe(d.Seconds())
}

// Rotated counts one segment rotation; n is the new live segment count.
func (o *WALObs) Rotated(n int) {
	if o == nil {
		return
	}
	o.rotations.Inc()
	o.segments.Set(float64(n))
}

// Snapshotted counts one snapshot write; n is the live segment count
// after garbage collection.
func (o *WALObs) Snapshotted(n int) {
	if o == nil {
		return
	}
	o.snapshots.Inc()
	o.segments.Set(float64(n))
}

// Replayed records a recovery pass: n records replayed, truncatedTail
// whether the tail had to be cut at the last valid record boundary.
func (o *WALObs) Replayed(n int, truncatedTail bool) {
	if o == nil {
		return
	}
	o.replayed.Add(uint64(n))
	if truncatedTail {
		o.replayFalls.Inc()
	}
}
