package sdn

import (
	"errors"
	"fmt"
	"math"

	"nfvmcast/internal/graph"
)

// Allocation is the resource bundle one admitted request occupies:
// bandwidth per link (Mbps; already multiplied by the number of
// traversals for pseudo-tree back-tracking) and computing per server
// (MHz). Both lists are strictly ascending by ID — one entry per
// resource — so every walk over them is deterministic; CanAllocate,
// Allocate and Release reject a bundle that breaks the order.
type Allocation struct {
	Links   []LinkShare
	Servers []ServerShare
}

// LinkShare is one link's part of an Allocation.
type LinkShare struct {
	Edge graph.EdgeID
	Mbps float64
}

// ServerShare is one server's part of an Allocation.
type ServerShare struct {
	Node graph.NodeID
	MHz  float64
}

// ErrMalformedAllocation is returned for an Allocation whose Links or
// Servers are not strictly ascending by ID, or that names an edge out
// of range. A repeated entry would be charged twice while each copy
// passed its own residual check, so such bundles never reach the
// residuals.
var ErrMalformedAllocation = errors.New("sdn: malformed allocation")

// checkShape validates a's ordering and edge range against nw.
func (nw *Network) checkShape(a Allocation) error {
	for i, l := range a.Links {
		if l.Edge < 0 || l.Edge >= len(nw.linkFree) {
			return fmt.Errorf("%w: edge %d out of range (m=%d)", ErrMalformedAllocation, l.Edge, len(nw.linkFree))
		}
		if i > 0 && l.Edge <= a.Links[i-1].Edge {
			return fmt.Errorf("%w: link %d follows link %d", ErrMalformedAllocation, l.Edge, a.Links[i-1].Edge)
		}
	}
	for i, s := range a.Servers {
		if i > 0 && s.Node <= a.Servers[i-1].Node {
			return fmt.Errorf("%w: server %d follows server %d", ErrMalformedAllocation, s.Node, a.Servers[i-1].Node)
		}
	}
	return nil
}

// InsufficientBandwidthError reports a link without enough residual
// bandwidth for an allocation.
type InsufficientBandwidthError struct {
	Edge     graph.EdgeID
	Need     float64
	Residual float64
}

func (e *InsufficientBandwidthError) Error() string {
	return fmt.Sprintf("sdn: link %d: need %.1f Mbps, residual %.1f Mbps",
		e.Edge, e.Need, e.Residual)
}

// InsufficientComputeError reports a server without enough residual
// computing capacity for an allocation.
type InsufficientComputeError struct {
	Node     graph.NodeID
	Need     float64
	Residual float64
}

func (e *InsufficientComputeError) Error() string {
	return fmt.Sprintf("sdn: server %d: need %.1f MHz, residual %.1f MHz",
		e.Node, e.Need, e.Residual)
}

// NotServerError reports an allocation against a switch without an
// attached server.
type NotServerError struct{ Node graph.NodeID }

func (e *NotServerError) Error() string {
	return fmt.Sprintf("sdn: node %d has no attached server", e.Node)
}

// CanAllocate reports whether a fits in the current residual
// capacities, returning the first violation found (deterministically:
// lowest edge/node ID first).
func (nw *Network) CanAllocate(a Allocation) error {
	if err := nw.checkShape(a); err != nil {
		return err
	}
	for _, l := range a.Links {
		e, need := l.Edge, l.Mbps
		if need < 0 {
			return fmt.Errorf("sdn: negative bandwidth %v on edge %d", need, e)
		}
		if !nw.LinkUp(e) {
			return fmt.Errorf("%w: %d", ErrLinkDown, e)
		}
		if need > nw.linkFree[e] {
			return &InsufficientBandwidthError{Edge: e, Need: need, Residual: nw.linkFree[e]}
		}
	}
	for _, s := range a.Servers {
		v, need := s.Node, s.MHz
		if !nw.IsServer(v) {
			return &NotServerError{Node: v}
		}
		if need < 0 {
			return fmt.Errorf("sdn: negative computing %v on server %d", need, v)
		}
		if !nw.ServerUp(v) {
			return fmt.Errorf("%w: %d", ErrServerDown, v)
		}
		if need > nw.srvFree[v] {
			return &InsufficientComputeError{Node: v, Need: need, Residual: nw.srvFree[v]}
		}
	}
	return nil
}

// Allocate atomically reserves a: either every link and server in the
// allocation is charged, or (on any violation) nothing is and the
// violation is returned. A successful Allocate takes a fresh
// MutationVersion and records the version before it and the residual of
// every resource it charges, so a Release that undoes it can name the
// restored state by its old version.
func (nw *Network) Allocate(a Allocation) error {
	if err := nw.CanAllocate(a); err != nil {
		return err
	}
	u := &nw.undo
	u.links, u.servers = u.links[:0], u.servers[:0]
	for _, l := range a.Links {
		u.links = append(u.links, LinkShare{Edge: l.Edge, Mbps: nw.linkFree[l.Edge]})
		nw.linkFree[l.Edge] -= l.Mbps
	}
	for _, s := range a.Servers {
		u.servers = append(u.servers, ServerShare{Node: s.Node, MHz: nw.srvFree[s.Node]})
		nw.srvFree[s.Node] -= s.MHz
	}
	u.before = nw.mutVer
	nw.bumpVersion()
	u.after = nw.mutVer
	return nil
}

// Release returns a previously-allocated bundle to the residual pools.
// Releasing more than was allocated is a programming error and is
// rejected (residuals never exceed capacity); like a malformed bundle,
// it is reported before any residual changes.
//
// When the network's last mutation was the Allocate of exactly the
// links and servers a names, and each of them is back at the residual
// it had before that Allocate, bit for bit, the residual state is the
// one that Allocate started from, and Release restores its
// MutationVersion. Any other successful Release takes a fresh version.
func (nw *Network) Release(a Allocation) error {
	if err := nw.checkShape(a); err != nil {
		return err
	}
	for _, l := range a.Links {
		e, amt := l.Edge, l.Mbps
		if amt < 0 || nw.linkFree[e]+amt > nw.linkCap[e]+1e-6 {
			return fmt.Errorf("sdn: release of %v Mbps overflows link %d (free %v, cap %v)",
				amt, e, nw.linkFree[e], nw.linkCap[e])
		}
	}
	for _, s := range a.Servers {
		v, amt := s.Node, s.MHz
		if !nw.IsServer(v) {
			return &NotServerError{Node: v}
		}
		if amt < 0 || nw.srvFree[v]+amt > nw.srvCap[v]+1e-6 {
			return fmt.Errorf("sdn: release of %v MHz overflows server %d (free %v, cap %v)",
				amt, v, nw.srvFree[v], nw.srvCap[v])
		}
	}
	for _, l := range a.Links {
		e := l.Edge
		nw.linkFree[e] += l.Mbps
		if nw.linkFree[e] > nw.linkCap[e] {
			nw.linkFree[e] = nw.linkCap[e]
		}
	}
	for _, s := range a.Servers {
		v := s.Node
		nw.srvFree[v] += s.MHz
		if nw.srvFree[v] > nw.srvCap[v] {
			nw.srvFree[v] = nw.srvCap[v]
		}
	}
	if nw.undoes(a) {
		nw.mutVer = nw.undo.before
	} else {
		nw.bumpVersion()
	}
	return nil
}

// undoRecord is what the last Allocate charged: the version before it,
// the fresh version it took (0: no record), and each charged resource's
// residual before the charge (in the share's amount field). The slices
// are reused, so recording allocates nothing in steady state.
type undoRecord struct {
	before, after uint64
	links         []LinkShare
	servers       []ServerShare
}

// undoes reports whether the just-applied release of a returned the
// network to the state before the recorded Allocate: nothing else has
// mutated the network since (the current version is still the fresh
// one that Allocate took, and no later mutation can name it again),
// and a names exactly the recorded links and servers, each back at its
// recorded residual bit for bit.
func (nw *Network) undoes(a Allocation) bool {
	u := &nw.undo
	if u.after == 0 || u.after != nw.mutVer ||
		len(a.Links) != len(u.links) || len(a.Servers) != len(u.servers) {
		return false
	}
	for i, l := range a.Links {
		if l.Edge != u.links[i].Edge || math.Float64bits(nw.linkFree[l.Edge]) != math.Float64bits(u.links[i].Mbps) {
			return false
		}
	}
	for i, s := range a.Servers {
		if s.Node != u.servers[i].Node || math.Float64bits(nw.srvFree[s.Node]) != math.Float64bits(u.servers[i].MHz) {
			return false
		}
	}
	return true
}
