package shard

import (
	"crypto/sha256"
	"fmt"
)

// ShardReport is one shard's view at Report time.
type ShardReport struct {
	// ID is the shard's stable identifier.
	ID string `json:"id"`
	// Admitted/Rejected/Departed count this shard's decisions;
	// Live is its current session count.
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	Departed int `json:"departed"`
	Live     int `json:"live"`
	// Lines is the transcript length behind Fingerprint.
	Lines int `json:"lines"`
	// Fingerprint is the SHA-256 hex digest of this shard's decision
	// transcript. Byte-identical across engine worker counts when the
	// router is driven sequentially.
	Fingerprint string `json:"fingerprint"`
}

// Report is the deterministic fan-in over every shard.
type Report struct {
	// Shards lists the per-shard reports in ascending shard-ID order.
	Shards []ShardReport `json:"shards"`
	// Merged digests the per-shard fingerprints (in Shards order), so
	// two routers agree on Merged iff they agree on every shard.
	Merged string `json:"merged"`
	// Fleet-wide sums of the per-shard counts.
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	Departed int `json:"departed"`
	Live     int `json:"live"`
}

// Report snapshots every shard in ascending shard-ID order and merges
// the per-shard transcript fingerprints into one digest. Call it with
// no admissions in flight for a stable snapshot; the per-shard locks
// only make the snapshot internally consistent per shard.
func (r *Router) Report() Report {
	var rep Report
	merged := sha256.New()
	for _, id := range r.order {
		s := r.shards[id]
		s.mu.Lock()
		sr := ShardReport{
			ID:          s.id,
			Admitted:    s.admitted,
			Rejected:    s.rejected,
			Departed:    s.departed,
			Lines:       s.lines,
			Fingerprint: fmt.Sprintf("%x", s.digest.Sum(nil)),
		}
		s.mu.Unlock()
		sr.Live = s.eng.LiveCount()
		fmt.Fprintf(merged, "shard=%s fp=%s\n", sr.ID, sr.Fingerprint)
		rep.Shards = append(rep.Shards, sr)
		rep.Admitted += sr.Admitted
		rep.Rejected += sr.Rejected
		rep.Departed += sr.Departed
		rep.Live += sr.Live
	}
	rep.Merged = fmt.Sprintf("%x", merged.Sum(nil))
	return rep
}
