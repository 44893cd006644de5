package sdn

import (
	"errors"
	"fmt"

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
// violation is returned.
func (nw *Network) Allocate(a Allocation) error {
	if err := nw.CanAllocate(a); err != nil {
		return err
	}
	for _, l := range a.Links {
		nw.linkFree[l.Edge] -= l.Mbps
	}
	for _, s := range a.Servers {
		nw.srvFree[s.Node] -= s.MHz
	}
	nw.mutVer++
	return nil
}

// Release returns a previously-allocated bundle to the residual pools.
// Releasing more than was allocated is a programming error and is
// rejected (residuals never exceed capacity); like a malformed bundle,
// it is reported before any residual changes.
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
	nw.mutVer++
	return nil
}
