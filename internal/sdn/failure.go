package sdn

import (
	"fmt"
	"sort"

	"nfvmcast/internal/graph"
)

// Link- and server-failure injection. Failed resources keep their
// residual bookkeeping (sessions still hold their allocations, so a
// later Release stays balanced) but are excluded from admission:
// algorithms must treat a down link as unusable and a down server as
// unable to host new VMs. Used by the failure-recovery tests and the
// re-planning workflow (fail → Release affected sessions → re-admit).

// ErrLinkDown is returned when allocating on a failed link.
var ErrLinkDown = fmt.Errorf("sdn: link is down")

// ErrServerDown is returned when allocating on a failed server.
var ErrServerDown = fmt.Errorf("sdn: server is down")

// SetLinkUp marks link e as up (true) or failed (false).
func (nw *Network) SetLinkUp(e graph.EdgeID, up bool) error {
	if e < 0 || e >= len(nw.linkFree) {
		return fmt.Errorf("sdn: edge %d out of range (m=%d)", e, len(nw.linkFree))
	}
	if nw.linkDown == nil {
		nw.linkDown = make(map[graph.EdgeID]bool)
	}
	if up {
		delete(nw.linkDown, e)
	} else {
		nw.linkDown[e] = true
	}
	nw.structVer++
	nw.bumpVersion()
	nw.recordResourceEvent(LinkResource, e, up)
	return nil
}

// LinkUp reports whether link e is operational.
func (nw *Network) LinkUp(e graph.EdgeID) bool {
	return !nw.linkDown[e]
}

// SetServerUp marks the server at v as up (true) or failed (false).
func (nw *Network) SetServerUp(v graph.NodeID, up bool) error {
	if !nw.IsServer(v) {
		return &NotServerError{Node: v}
	}
	if nw.srvDown == nil {
		nw.srvDown = make(map[graph.NodeID]bool)
	}
	if up {
		delete(nw.srvDown, v)
	} else {
		nw.srvDown[v] = true
	}
	nw.structVer++
	nw.bumpVersion()
	nw.recordResourceEvent(ServerResource, v, up)
	return nil
}

// ServerUp reports whether the server at v is operational (false also
// for non-server switches).
func (nw *Network) ServerUp(v graph.NodeID) bool {
	return nw.IsServer(v) && !nw.srvDown[v]
}

// DownLinks returns the failed links, sorted ascending.
func (nw *Network) DownLinks() []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(nw.linkDown))
	for e := range nw.linkDown {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

// AffectedBy reports whether an allocation touches any failed
// resource — used to find the sessions that must be re-planned after
// a failure.
func (nw *Network) AffectedBy(a Allocation) bool {
	for _, l := range a.Links {
		if !nw.LinkUp(l.Edge) {
			return true
		}
	}
	for _, s := range a.Servers {
		if v := s.Node; nw.IsServer(v) && !nw.ServerUp(v) {
			return true
		}
	}
	return false
}
