package sdn

import "nfvmcast/internal/graph"

// Residual-change journal. Planner caches patch residual-derived
// structures (re-priced work graphs, shortest-path trees) instead of
// rebuilding them, and the patch needs to know which links and servers
// a mutation epoch actually touched. Every MutationVersion bump records
// one journal entry listing the link and server IDs whose residual
// state moved in that epoch; one Allocate or Release is one epoch, and
// its entry names each link and server of the bundle exactly once.
// Consumers ask for the union of changes across a version
// window with ResidualChangesSince; a window that reaches beyond the
// journal's bounded history, or that contains a whole-network
// transition (Restore, an unrecognised mutator), answers ok=false and
// the consumer falls back to a full comparison scan.
//
// The journal is a fixed-capacity ring owned by one network: no entry
// is ever shared with another Network, so the writer may overwrite
// evicted slots freely. Clone copies the ring; CloneInto reuses the
// destination's ring storage, keeping the engine's snapshot path
// allocation-free in steady state.

const (
	// residualLogEntries bounds how many mutation epochs the journal
	// retains. Commit/depart cycles move two epochs per session, so 64
	// entries cover the re-plan and short-gap patch windows the caches
	// exercise; longer gaps fall back to a full-vector comparison.
	residualLogEntries = 64
	// residualLogIDs bounds the total changed-ID storage across all
	// retained entries. A pseudo-multicast tree touches tens of links,
	// so 4096 IDs hold a full window of tree-sized epochs.
	residualLogIDs = 4096
)

// residualLogEntry is one mutation epoch's change record. Link IDs
// occupy ids[start : start+nLinks] and server IDs the nSrv slots after
// them (both modulo the ring capacity). full marks an epoch whose
// change set was not tracked (Restore, unrecognised mutators): every
// residual may have moved.
type residualLogEntry struct {
	ver    uint64
	full   bool
	start  int
	nLinks int32
	nSrv   int32
}

// residualLog is the fixed-capacity journal ring.
type residualLog struct {
	entries [residualLogEntries]residualLogEntry
	head    int // index of the oldest entry
	count   int
	idsUsed int // live ID slots across all entries
	idsNext int // next write position in ids
	ids     [residualLogIDs]int32
}

// entryAt returns the i-th oldest entry (0 <= i < count).
func (l *residualLog) entryAt(i int) *residualLogEntry {
	return &l.entries[(l.head+i)%residualLogEntries]
}

// evictOldest drops the oldest entry, releasing its ID slots.
func (l *residualLog) evictOldest() {
	e := l.entryAt(0)
	l.idsUsed -= int(e.nLinks + e.nSrv)
	l.head = (l.head + 1) % residualLogEntries
	l.count--
}

// append records one epoch. A change set too large for the ring is
// recorded as a full entry — consumers treat it like an untracked
// epoch.
func (l *residualLog) append(ver uint64, full bool, links, servers []int32) {
	need := len(links) + len(servers)
	if need > residualLogIDs {
		full, need = true, 0
	}
	if full {
		links, servers, need = nil, nil, 0
	}
	for l.count > 0 && (l.count == residualLogEntries || l.idsUsed+need > residualLogIDs) {
		l.evictOldest()
	}
	e := &l.entries[(l.head+l.count)%residualLogEntries]
	*e = residualLogEntry{
		ver: ver, full: full, start: l.idsNext,
		nLinks: int32(len(links)), nSrv: int32(len(servers)),
	}
	for _, id := range links {
		l.ids[l.idsNext] = id
		l.idsNext = (l.idsNext + 1) % residualLogIDs
	}
	for _, id := range servers {
		l.ids[l.idsNext] = id
		l.idsNext = (l.idsNext + 1) % residualLogIDs
	}
	l.idsUsed += need
	l.count++
}

// markLinkChanged records link e in the current epoch's change set.
// An epoch is one mutator call, and each marks a link at most once:
// Allocate and Release walk a bundle that checkShape has already
// proven free of repeated IDs.
func (nw *Network) markLinkChanged(e graph.EdgeID) {
	nw.dirtyLinks = append(nw.dirtyLinks, int32(e))
}

// markServerChanged records server v in the current epoch's change set
// (at most once per epoch, as for links).
func (nw *Network) markServerChanged(v graph.NodeID) {
	nw.dirtySrvs = append(nw.dirtySrvs, int32(v))
}

// markAllChanged records the current epoch as a whole-network
// transition (Restore rewinds every residual at once).
func (nw *Network) markAllChanged() {
	nw.dirtyFull = true
	nw.dirtyLinks = nw.dirtyLinks[:0]
	nw.dirtySrvs = nw.dirtySrvs[:0]
}

// bumpMutation advances MutationVersion and journals the epoch's
// change set. Every residual mutator calls it exactly once per
// successful state change.
func (nw *Network) bumpMutation() {
	nw.mutVer++
	nw.flushResidualChanges()
}

// flushResidualChanges appends the accumulated change set as the entry
// for the just-bumped MutationVersion and resets the accumulator. A
// bump with no recorded marks comes from a mutator the journal does
// not know about and is recorded as full — conservatively correct.
func (nw *Network) flushResidualChanges() {
	if nw.log == nil {
		nw.log = &residualLog{}
	}
	full := nw.dirtyFull || (len(nw.dirtyLinks) == 0 && len(nw.dirtySrvs) == 0)
	nw.log.append(nw.mutVer, full, nw.dirtyLinks, nw.dirtySrvs)
	nw.dirtyFull = false
	nw.dirtyLinks = nw.dirtyLinks[:0]
	nw.dirtySrvs = nw.dirtySrvs[:0]
}

// ResidualChangesSince reports which links and servers changed
// residual state in the version window (from, MutationVersion()]. The
// changed link IDs are appended to links and server IDs to servers
// (both may carry prior content and should usually be passed with
// length 0; IDs may repeat across epochs — callers deduplicate). The
// returned ok is false when the window reaches beyond the journal's
// retained history or contains a whole-network transition; callers
// must then treat every residual as potentially changed. from equal to
// the current version is the empty window: ok with nothing appended.
func (nw *Network) ResidualChangesSince(
	from uint64, links, servers []int32,
) (outLinks, outServers []int32, ok bool) {
	if from == nw.mutVer {
		return links, servers, true
	}
	if from > nw.mutVer || nw.log == nil {
		return links, servers, false
	}
	l := nw.log
	// Locate the entry for version from+1. Entries hold consecutive
	// versions (every bump appends exactly one), so index arithmetic
	// against the newest entry finds it.
	if l.count == 0 {
		return links, servers, false
	}
	newest := l.entryAt(l.count - 1).ver
	if newest != nw.mutVer {
		// A foreign history (restored ring, future mutators): refuse.
		return links, servers, false
	}
	span := nw.mutVer - from
	if span > uint64(l.count) {
		return links, servers, false
	}
	for i := l.count - int(span); i < l.count; i++ {
		e := l.entryAt(i)
		if e.full {
			return links, servers, false
		}
		at := e.start
		for k := int32(0); k < e.nLinks; k++ {
			links = append(links, l.ids[at])
			at = (at + 1) % residualLogIDs
		}
		for k := int32(0); k < e.nSrv; k++ {
			servers = append(servers, l.ids[at])
			at = (at + 1) % residualLogIDs
		}
	}
	return links, servers, true
}

// VisitServers calls fn for every server-attached switch in ascending
// order, without allocating (Servers copies). If fn returns false,
// iteration stops early.
func (nw *Network) VisitServers(fn func(v graph.NodeID) bool) {
	for _, v := range nw.servers {
		if !fn(v) {
			return
		}
	}
}
