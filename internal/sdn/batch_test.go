package sdn

import "testing"

func TestMutationBatchBumpsOnce(t *testing.T) {
	nw := testNet(t, 50, 11)
	srv := nw.Servers()[0]
	alloc := func(mbps, mhz float64) Allocation {
		return Allocation{
			Links:   []LinkShare{{Edge: 0, Mbps: mbps}},
			Servers: []ServerShare{{Node: srv, MHz: mhz}},
		}
	}

	before := nw.MutationVersion()
	freeLink, freeSrv := nw.ResidualBandwidth(0), nw.ResidualCompute(srv)
	nw.BeginMutationBatch()
	if !nw.InMutationBatch() {
		t.Fatalf("InMutationBatch = false inside a batch")
	}
	for i := 0; i < 5; i++ {
		if err := nw.Allocate(alloc(1, 1)); err != nil {
			t.Fatalf("Allocate %d: %v", i, err)
		}
	}
	if err := nw.Release(alloc(1, 1)); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := nw.SetBandwidthCap(1, nw.BandwidthCap(1)+50); err != nil {
		t.Fatalf("SetBandwidthCap: %v", err)
	}
	if got := nw.MutationVersion(); got != before {
		t.Fatalf("MutationVersion moved mid-batch: %d -> %d", before, got)
	}
	nw.EndMutationBatch()
	if nw.InMutationBatch() {
		t.Fatalf("InMutationBatch = true after the batch closed")
	}
	if got := nw.MutationVersion(); got != before+1 {
		t.Fatalf("MutationVersion after batch = %d, want %d (exactly one bump)", got, before+1)
	}

	// Residual effects of everything inside the batch are intact.
	if got := nw.ResidualBandwidth(0); got != freeLink-4 {
		t.Fatalf("link 0 residual = %v, want %v", got, freeLink-4)
	}
	if got := nw.ResidualCompute(srv); got != freeSrv-4 {
		t.Fatalf("server %d residual = %v, want %v", srv, got, freeSrv-4)
	}
}

func TestMutationBatchEmptyDoesNotBump(t *testing.T) {
	nw := testNet(t, 50, 11)
	before := nw.MutationVersion()
	nw.BeginMutationBatch()
	nw.EndMutationBatch()
	if got := nw.MutationVersion(); got != before {
		t.Fatalf("empty batch bumped MutationVersion: %d -> %d", before, got)
	}
}

func TestMutationBatchNesting(t *testing.T) {
	nw := testNet(t, 50, 11)
	a := Allocation{Links: []LinkShare{{Edge: 0, Mbps: 1}}}
	before := nw.MutationVersion()

	nw.BeginMutationBatch()
	nw.BeginMutationBatch()
	if err := nw.Allocate(a); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	nw.EndMutationBatch() // inner close: still batched
	if got := nw.MutationVersion(); got != before {
		t.Fatalf("inner EndMutationBatch bumped: %d -> %d", before, got)
	}
	if err := nw.Allocate(a); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	nw.EndMutationBatch()
	if got := nw.MutationVersion(); got != before+1 {
		t.Fatalf("nested batch bumps = %d, want 1", got-before)
	}

	// Unpaired End outside any batch is a tolerated no-op.
	nw.EndMutationBatch()
	if got := nw.MutationVersion(); got != before+1 {
		t.Fatalf("stray EndMutationBatch bumped: %d", got)
	}

	// After the batch, mutations bump immediately again.
	if err := nw.Allocate(a); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if got := nw.MutationVersion(); got != before+2 {
		t.Fatalf("post-batch Allocate: version %d, want %d", got, before+2)
	}
}

func TestMutationBatchFailureBumpsStructureImmediately(t *testing.T) {
	// Failure injection bumps StructureVersion unconditionally even
	// inside a batch: only the residual MutationVersion is amortized,
	// structure changes are never deferred.
	nw := testNet(t, 50, 11)
	sBefore, mBefore := nw.StructureVersion(), nw.MutationVersion()
	nw.BeginMutationBatch()
	if err := nw.SetLinkUp(0, false); err != nil {
		t.Fatalf("SetLinkUp: %v", err)
	}
	if got := nw.StructureVersion(); got != sBefore+1 {
		t.Fatalf("StructureVersion inside batch = %d, want %d", got, sBefore+1)
	}
	if got := nw.MutationVersion(); got != mBefore {
		t.Fatalf("MutationVersion moved mid-batch: %d", got)
	}
	nw.EndMutationBatch()
	if got := nw.MutationVersion(); got != mBefore+1 {
		t.Fatalf("MutationVersion after batch = %d, want %d", got, mBefore+1)
	}
}

func TestMutationBatchCloneStartsUnbatched(t *testing.T) {
	nw := testNet(t, 50, 11)
	a := Allocation{Links: []LinkShare{{Edge: 0, Mbps: 1}}}

	nw.BeginMutationBatch()
	cp := nw.Clone()
	nw.EndMutationBatch()
	if cp.InMutationBatch() {
		t.Fatalf("clone reports an open batch")
	}
	before := cp.MutationVersion()
	if err := cp.Allocate(a); err != nil {
		t.Fatalf("Allocate on clone: %v", err)
	}
	if got := cp.MutationVersion(); got != before+1 {
		t.Fatalf("clone Allocate bump = %d, want %d", got, before+1)
	}
}
