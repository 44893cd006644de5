package core

import (
	"fmt"
	"sort"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// Departure support: multicast sessions end (conferences finish,
// streams stop) and their resources return to the pool. The paper
// models a fixed monitoring period without departures; this extension
// makes the online admitters usable as long-running systems. The
// shared Admitter (the commit layer every online algorithm and the
// engine run through) tracks live allocations by request ID in a
// liveTable, and its Depart releases them atomically — so departures
// and re-optimisation behave uniformly across planners instead of each
// admitter carrying its own bookkeeping.

// ErrUnknownRequest is returned when departing a request that is not
// currently admitted.
var ErrUnknownRequest = fmt.Errorf("core: request not admitted")

// liveTable tracks admitted requests' allocations for departure. It is
// owned by the Admitter; nothing else mutates it.
type liveTable struct {
	nw    *sdn.Network
	byID  map[int]sdn.Allocation
	solBy map[int]*Solution
	seqBy map[int]uint64 // when the session was recorded, for admission order
	seq   uint64
}

func newLiveTable(nw *sdn.Network) *liveTable {
	return &liveTable{
		nw:    nw,
		byID:  make(map[int]sdn.Allocation),
		solBy: make(map[int]*Solution),
		seqBy: make(map[int]uint64),
	}
}

func (l *liveTable) record(req *multicast.Request, sol *Solution, alloc sdn.Allocation) {
	l.byID[req.ID] = alloc
	l.solBy[req.ID] = sol
	l.seq++
	l.seqBy[req.ID] = l.seq
}

// forget drops a session's records without touching the network.
func (l *liveTable) forget(reqID int) {
	delete(l.byID, reqID)
	delete(l.solBy, reqID)
	delete(l.seqBy, reqID)
}

func (l *liveTable) depart(reqID int) (*Solution, error) {
	alloc, ok := l.byID[reqID]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownRequest, reqID)
	}
	if err := l.nw.Release(alloc); err != nil {
		return nil, err
	}
	sol := l.solBy[reqID]
	l.forget(reqID)
	return sol, nil
}

func (l *liveTable) live() int { return len(l.byID) }

// solutions returns the live sessions' realisations in ascending
// request-ID order — the deterministic view consistency oracles (the
// scenario harness, the engine fuzz targets) compare against residual
// capacities — or, with byAdmission, in the order they were recorded.
func (l *liveTable) solutions(byAdmission bool) []*Solution {
	ids := make([]int, 0, len(l.solBy))
	for id := range l.solBy {
		ids = append(ids, id)
	}
	if byAdmission {
		sort.Slice(ids, func(i, j int) bool { return l.seqBy[ids[i]] < l.seqBy[ids[j]] })
	} else {
		sort.Ints(ids)
	}
	out := make([]*Solution, len(ids))
	for i, id := range ids {
		out[i] = l.solBy[id]
	}
	return out
}
