package sdn

import (
	"fmt"
	"math"

	"nfvmcast/internal/graph"
)

// Capacity right-sizing. Operators resize link bandwidth and server
// computing capacity while sessions are live (diurnal scale-down of
// leased transport, maintenance re-provisioning), so the setters below
// must preserve the allocation bookkeeping: the currently allocated
// share (capacity minus residual) is a floor no resize may cut into —
// shrinking below it would make live sessions release more than the
// link could ever have held. Both setters give MutationVersion a fresh
// number (the residual state changed) but leave StructureVersion alone:
// which links and servers exist is unchanged, so structure-keyed caches
// stay valid while residual-keyed ones miss, exactly matching what a
// resize perturbs.

// ErrCapacityBelowAllocation is returned when a resize would shrink a
// resource below what live sessions already hold on it.
var ErrCapacityBelowAllocation = fmt.Errorf("sdn: new capacity below current allocation")

// SetBandwidthCap resizes link e to capMbps, keeping its allocated
// share intact: the residual becomes capMbps minus the bandwidth live
// sessions hold on e. capMbps must be positive, finite and at least
// that allocated share.
func (nw *Network) SetBandwidthCap(e graph.EdgeID, capMbps float64) error {
	if e < 0 || e >= len(nw.linkCap) {
		return fmt.Errorf("sdn: edge %d out of range (m=%d)", e, len(nw.linkCap))
	}
	if math.IsNaN(capMbps) || math.IsInf(capMbps, 0) || capMbps <= 0 {
		return fmt.Errorf("sdn: invalid bandwidth capacity %v for link %d", capMbps, e)
	}
	allocated := nw.linkCap[e] - nw.linkFree[e]
	if capMbps < allocated-1e-6 {
		return fmt.Errorf("%w: link %d holds %.1f Mbps, new capacity %.1f Mbps",
			ErrCapacityBelowAllocation, e, allocated, capMbps)
	}
	nw.linkCap[e] = capMbps
	nw.linkFree[e] = math.Max(capMbps-allocated, 0)
	nw.bumpVersion()
	return nil
}

// SetComputeCap resizes the server at v to capMHz, keeping its
// allocated share intact (see SetBandwidthCap). v must carry a server;
// capMHz must be positive, finite and at least the allocated share.
func (nw *Network) SetComputeCap(v graph.NodeID, capMHz float64) error {
	if !nw.IsServer(v) {
		return &NotServerError{Node: v}
	}
	if math.IsNaN(capMHz) || math.IsInf(capMHz, 0) || capMHz <= 0 {
		return fmt.Errorf("sdn: invalid computing capacity %v for server %d", capMHz, v)
	}
	allocated := nw.srvCap[v] - nw.srvFree[v]
	if capMHz < allocated-1e-6 {
		return fmt.Errorf("%w: server %d holds %.1f MHz, new capacity %.1f MHz",
			ErrCapacityBelowAllocation, v, allocated, capMHz)
	}
	nw.srvCap[v] = capMHz
	nw.srvFree[v] = math.Max(capMHz-allocated, 0)
	nw.bumpVersion()
	return nil
}
