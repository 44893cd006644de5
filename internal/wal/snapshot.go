package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/sdn"
)

// Snapshots bound replay time: a snapshot captures the complete
// recoverable state — per-link capacity/residual/up-state, per-server
// the same, and every live session with its logged solution — keyed by
// the LSN it covers and stamped with the state fingerprint, so
// recovery can start from the snapshot and replay only the record
// suffix, and verify on arrival that snapshot-plus-suffix equals what
// the full log would have produced.
//
// Residuals are recorded verbatim (not re-derived from capacities
// minus allocations): the residual floats are a product of the
// allocate/release history, and restoring the recorded vectors keeps
// the recovered network bit-identical (see sdn.RawSnapshot).

// snapshotVersion guards the snapshot schema.
const snapshotVersion = 1

// snapshotFile is the JSON body of a snap-<lsn>.json file (wrapped in
// one CRC frame by writeFramed).
type snapshotFile struct {
	Version     int    `json:"version"`
	LSN         uint64 `json:"lsn"`
	Fingerprint string `json:"fingerprint"`
	// Links holds, per edge ID ascending, [capacity, residual]; Down
	// lists the failed edge IDs.
	LinkCaps  []float64 `json:"link_caps"`
	LinkFree  []float64 `json:"link_free"`
	DownLinks []int     `json:"down_links,omitempty"`
	// Servers hold the per-server state, ascending node ID.
	Servers []serverSnap `json:"servers"`
	// Lives holds every live session, ascending request ID.
	Lives []liveSnap `json:"lives"`
}

type serverSnap struct {
	Node int     `json:"node"`
	Cap  float64 `json:"cap"`
	Free float64 `json:"free"`
	Down bool    `json:"down,omitempty"`
}

type liveSnap struct {
	Req *RequestRecord  `json:"req"`
	Sol *SolutionRecord `json:"sol"`
}

// Snapshot captures the engine's state atomically (between operations,
// on the writer goroutine), writes it as snap-<lastLSN>.json, and
// garbage-collects segments and older snapshots the new snapshot
// subsumes (the previous snapshot is kept as a fallback). It returns
// the covered LSN. The engine must be the one this log journals for —
// the covered LSN is read inside the capture, so it is exact. The
// capture can include operations whose records are appended but whose
// barrier is still owed (the engine acks from its committer), so the
// snapshot is published only after a barrier of its own: a snapshot
// never claims an LSN the segment chain could lose in a crash.
func (l *Log) Snapshot(eng *engine.Engine) (uint64, error) {
	var snap *snapshotFile
	err := eng.SnapshotState(func(nw *sdn.Network, lives []*core.Solution) {
		l.mu.Lock()
		lsn := l.lastLSN
		l.mu.Unlock()
		snap = captureSnapshot(lsn, nw, lives)
	})
	if err != nil {
		return 0, err
	}
	if err := l.Barrier(); err != nil {
		return 0, err
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return 0, fmt.Errorf("wal: encode snapshot: %w", err)
	}
	if err := writeFramed(l.dir, l.snapshotPath(snap.LSN), payload, l.opts.NoSync); err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.snapLSN = snap.LSN
	l.sinceSnap = 0
	l.mu.Unlock()
	n, gcErr := l.collect(snap.LSN)
	l.opts.Obs.Snapshotted(n)
	return snap.LSN, gcErr
}

// captureSnapshot serialises the held-still state.
func captureSnapshot(lsn uint64, nw *sdn.Network, lives []*core.Solution) *snapshotFile {
	snap := &snapshotFile{
		Version:     snapshotVersion,
		LSN:         lsn,
		Fingerprint: fingerprintOf(nw, lives),
		LinkCaps:    make([]float64, nw.NumEdges()),
		LinkFree:    make([]float64, nw.NumEdges()),
	}
	for e := 0; e < nw.NumEdges(); e++ {
		snap.LinkCaps[e] = nw.BandwidthCap(e)
		snap.LinkFree[e] = nw.ResidualBandwidth(e)
		if !nw.LinkUp(e) {
			snap.DownLinks = append(snap.DownLinks, e)
		}
	}
	servers := append([]int(nil), nw.Servers()...)
	sort.Ints(servers)
	for _, v := range servers {
		snap.Servers = append(snap.Servers, serverSnap{
			Node: v,
			Cap:  nw.ComputeCap(v),
			Free: nw.ResidualCompute(v),
			Down: !nw.ServerUp(v),
		})
	}
	for _, sol := range lives {
		snap.Lives = append(snap.Lives, liveSnap{
			Req: encodeRequest(sol.Request),
			Sol: encodeSolution(sol),
		})
	}
	return snap
}

// collect garbage-collects after the snapshot at snapLSN: snapshots
// older than the previous one go (two are kept: the new snapshot and
// one fallback), and then every segment the OLDEST KEPT snapshot fully
// covers (except the active one). The horizon is the fallback snapshot,
// not the new one — the fallback is only usable if the records between
// it and the head are still on disk. Returns the surviving segment
// count.
func (l *Log) collect(snapLSN uint64) (int, error) {
	snaps, err := l.snapshots()
	if err != nil {
		return 0, err
	}
	var firstErr error
	for i := 0; i+2 < len(snaps); i++ {
		if rerr := os.Remove(l.snapshotPath(snaps[i])); rerr != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: collect snapshot: %w", rerr)
		}
	}
	horizon := snapLSN
	if len(snaps) >= 2 {
		horizon = snaps[len(snaps)-2]
	}
	segs, err := l.segments()
	if err != nil {
		return 0, err
	}
	kept := len(segs)
	// A segment's records span [firstLSN, nextFirstLSN-1]; it is
	// collectable when the NEXT segment starts at or below horizon+1.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] > horizon+1 {
			break
		}
		if rerr := os.Remove(l.segmentPath(segs[i])); rerr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wal: collect segment: %w", rerr)
			}
			continue
		}
		kept--
	}
	l.mu.Lock()
	l.segCount = kept
	l.mu.Unlock()
	return kept, firstErr
}

// readSnapshot loads and verifies the snapshot covering lsn.
func (l *Log) readSnapshot(lsn uint64) (*snapshotFile, error) {
	payload, err := readFramed(l.snapshotPath(lsn))
	if err != nil {
		return nil, err
	}
	snap := new(snapshotFile)
	if err := json.Unmarshal(payload, snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot %016x: %v", ErrLogCorrupt, lsn, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot %016x: unsupported version %d",
			ErrLogCorrupt, lsn, snap.Version)
	}
	if snap.LSN != lsn {
		return nil, fmt.Errorf("%w: snapshot %016x claims lsn %d",
			ErrLogCorrupt, lsn, snap.LSN)
	}
	return snap, nil
}

// restoreSnapshot installs snap into a freshly-built engine (base
// topology, nothing live) as one engine.Replay. Order matters:
// capacities first (validated against zero allocation), then the live
// sessions (all links still up, so their logged trees allocate), then
// the failure state, and finally the recorded residual vectors verbatim.
func restoreSnapshot(eng *engine.Engine, snap *snapshotFile) error {
	var caps, downs []engine.Mutation
	for e, cap := range snap.LinkCaps {
		caps = append(caps, engine.Mutation{Kind: engine.LinkCapacity, ID: e, Capacity: cap})
	}
	for _, e := range snap.DownLinks {
		downs = append(downs, engine.Mutation{Kind: engine.LinkState, ID: e, Up: false})
	}
	srvFree := make(map[int]float64, len(snap.Servers))
	for _, s := range snap.Servers {
		caps = append(caps, engine.Mutation{Kind: engine.ServerCapacity, ID: s.Node, Capacity: s.Cap})
		if s.Down {
			downs = append(downs, engine.Mutation{Kind: engine.ServerState, ID: s.Node, Up: false})
		}
		srvFree[s.Node] = s.Free
	}
	outs := []engine.Outcome{{Kind: engine.MutationsApplied, Mutations: caps}}
	for _, live := range snap.Lives {
		req, err := live.Req.Decode()
		if err != nil {
			return fmt.Errorf("%w: snapshot live session: %v", ErrLogCorrupt, err)
		}
		if live.Sol == nil {
			return fmt.Errorf("%w: snapshot live session %d without solution", ErrLogCorrupt, req.ID)
		}
		outs = append(outs, engine.Outcome{Kind: engine.Admitted, ReqID: req.ID, Solution: live.Sol.Decode(req)})
	}
	outs = append(outs,
		engine.Outcome{Kind: engine.MutationsApplied, Mutations: downs},
		engine.Outcome{Kind: engine.ResidualsInstalled, Residuals: sdn.RawSnapshot(snap.LinkFree, srvFree)})
	if err := eng.Replay(outs...); err != nil {
		return fmt.Errorf("wal: restore snapshot %d: %w", snap.LSN, err)
	}
	return nil
}
