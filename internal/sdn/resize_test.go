package sdn

import (
	"errors"
	"testing"

	"nfvmcast/internal/graph"
)

// Shrink-below-allocated regression tests: a resize that would cut
// into the share live sessions already hold must fail with the typed
// ErrCapacityBelowAllocation and leave the resource untouched — no
// silent clamping, no partial state change.

func TestSetBandwidthCapShrinkBelowAllocated(t *testing.T) {
	nw := testNet(t, 50, 7)
	e := graph.EdgeID(0)
	a := Allocation{Links: []LinkShare{{Edge: e, Mbps: 100}}}
	if err := nw.Allocate(a); err != nil {
		t.Fatalf("Allocate: %v", err)
	}

	capBefore, freeBefore := nw.BandwidthCap(e), nw.ResidualBandwidth(e)
	verBefore := nw.MutationVersion()
	err := nw.SetBandwidthCap(e, 50) // allocated share is 100 Mbps
	if err == nil {
		t.Fatalf("SetBandwidthCap below allocation accepted (cap now %v)", nw.BandwidthCap(e))
	}
	if !errors.Is(err, ErrCapacityBelowAllocation) {
		t.Fatalf("error %v, want errors.Is(..., ErrCapacityBelowAllocation)", err)
	}
	if nw.BandwidthCap(e) != capBefore || nw.ResidualBandwidth(e) != freeBefore {
		t.Fatalf("rejected resize changed link state: cap %v->%v, free %v->%v",
			capBefore, nw.BandwidthCap(e), freeBefore, nw.ResidualBandwidth(e))
	}
	if nw.MutationVersion() != verBefore {
		t.Fatalf("rejected resize bumped MutationVersion %d -> %d", verBefore, nw.MutationVersion())
	}

	// Exactly the allocated share (within tolerance) is allowed and
	// pins the residual at zero.
	if err := nw.SetBandwidthCap(e, 100); err != nil {
		t.Fatalf("SetBandwidthCap to exactly the allocated share: %v", err)
	}
	if got := nw.ResidualBandwidth(e); got != 0 {
		t.Fatalf("residual after shrink-to-allocated = %v, want 0", got)
	}
}

func TestSetComputeCapShrinkBelowAllocated(t *testing.T) {
	nw := testNet(t, 50, 7)
	v := nw.Servers()[0]
	a := Allocation{Servers: []ServerShare{{Node: v, MHz: 500}}}
	if err := nw.Allocate(a); err != nil {
		t.Fatalf("Allocate: %v", err)
	}

	capBefore, freeBefore := nw.ComputeCap(v), nw.ResidualCompute(v)
	verBefore := nw.MutationVersion()
	err := nw.SetComputeCap(v, 250) // allocated share is 500 MHz
	if err == nil {
		t.Fatalf("SetComputeCap below allocation accepted (cap now %v)", nw.ComputeCap(v))
	}
	if !errors.Is(err, ErrCapacityBelowAllocation) {
		t.Fatalf("error %v, want errors.Is(..., ErrCapacityBelowAllocation)", err)
	}
	if nw.ComputeCap(v) != capBefore || nw.ResidualCompute(v) != freeBefore {
		t.Fatalf("rejected resize changed server state: cap %v->%v, free %v->%v",
			capBefore, nw.ComputeCap(v), freeBefore, nw.ResidualCompute(v))
	}
	if nw.MutationVersion() != verBefore {
		t.Fatalf("rejected resize bumped MutationVersion %d -> %d", verBefore, nw.MutationVersion())
	}

	if err := nw.SetComputeCap(v, 500); err != nil {
		t.Fatalf("SetComputeCap to exactly the allocated share: %v", err)
	}
	if got := nw.ResidualCompute(v); got != 0 {
		t.Fatalf("residual after shrink-to-allocated = %v, want 0", got)
	}
}

func TestResizeRejectsInvalidCapacities(t *testing.T) {
	nw := testNet(t, 50, 7)
	v := nw.Servers()[0]
	for _, bad := range []float64{0, -1} {
		if err := nw.SetBandwidthCap(0, bad); err == nil {
			t.Fatalf("SetBandwidthCap(%v) accepted", bad)
		}
		if err := nw.SetComputeCap(v, bad); err == nil {
			t.Fatalf("SetComputeCap(%v) accepted", bad)
		}
	}
	if err := nw.SetBandwidthCap(-1, 100); err == nil {
		t.Fatal("SetBandwidthCap on out-of-range edge accepted")
	}
	if err := nw.SetComputeCap(0, 100); !errors.As(err, new(*NotServerError)) {
		// Node 0 may coincidentally be a server on some seeds; only
		// assert when it is not.
		if !nw.IsServer(0) {
			t.Fatalf("SetComputeCap on non-server: %v, want NotServerError", err)
		}
	}
}
