package engine

import (
	"errors"
	"math"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// applyFixture builds an engine over GÉANT with a few live sessions so
// capacity-floor validation has allocations to trip over.
func applyFixture(t *testing.T, withRecovery bool) (*Engine, *sdn.Network) {
	t.Helper()
	nw := testNetwork(t, "geant", 7)
	opts := Options{}
	if withRecovery {
		pol := recov.DefaultPolicy()
		opts.Recovery = &pol
	}
	eng := New(nw, plannerFor(t, "Online_CP", nw), opts)
	t.Cleanup(eng.Close)
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		_, _ = eng.Admit(req)
	}
	if len(eng.Lives()) == 0 {
		t.Fatal("fixture admitted nothing")
	}
	return eng, nw
}

// networkState captures the residual state Apply must leave untouched
// on rejection.
func networkState(eng *Engine) (mutVer, structVer uint64, freeSum float64) {
	_ = eng.SnapshotState(func(nw *sdn.Network, _ []*core.Solution) {
		mutVer, structVer = nw.MutationVersion(), nw.StructureVersion()
		for e := 0; e < nw.NumEdges(); e++ {
			freeSum += nw.ResidualBandwidth(e)
		}
	})
	return
}

func TestApplyRejectsMalformedMutations(t *testing.T) {
	eng, nw := applyFixture(t, false)
	m := nw.NumEdges()

	cases := []struct {
		name string
		mut  Mutation
	}{
		{"link out of range high", Mutation{Kind: LinkState, ID: m + 3}},
		{"link negative", Mutation{Kind: LinkState, ID: -1}},
		{"not a server", Mutation{Kind: ServerState, ID: nonServerNode(nw)}},
		{"negative link capacity", Mutation{Kind: LinkCapacity, ID: 0, Capacity: -5}},
		{"zero link capacity", Mutation{Kind: LinkCapacity, ID: 0, Capacity: 0}},
		{"NaN link capacity", Mutation{Kind: LinkCapacity, ID: 0, Capacity: math.NaN()}},
		{"Inf server capacity", Mutation{Kind: ServerCapacity, ID: nw.Servers()[0], Capacity: math.Inf(1)}},
		{"server capacity on non-server", Mutation{Kind: ServerCapacity, ID: nonServerNode(nw), Capacity: 100}},
		{"unknown kind", Mutation{Kind: MutationKind(42), ID: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			beforeMut, beforeStruct, beforeFree := networkState(eng)
			err := eng.Apply(tc.mut)
			var merr *MalformedMutationError
			if !errors.As(err, &merr) {
				t.Fatalf("want *MalformedMutationError, got %v", err)
			}
			if merr.Index != 0 {
				t.Errorf("index = %d, want 0", merr.Index)
			}
			afterMut, afterStruct, afterFree := networkState(eng)
			if afterMut != beforeMut || afterStruct != beforeStruct || afterFree != beforeFree {
				t.Errorf("rejected mutation moved network state: mutVer %d->%d structVer %d->%d free %v->%v",
					beforeMut, afterMut, beforeStruct, afterStruct, beforeFree, afterFree)
			}
		})
	}
}

// nonServerNode finds a switch without an attached server.
func nonServerNode(nw *sdn.Network) int {
	for v := 0; v < nw.NumNodes(); v++ {
		if !nw.IsServer(v) {
			return v
		}
	}
	return -1
}

func TestApplyRejectsCapacityBelowAllocation(t *testing.T) {
	eng, _ := applyFixture(t, false)
	// Find a link a live session holds bandwidth on.
	var loaded, allocated = -1, 0.0
	_ = eng.SnapshotState(func(nw *sdn.Network, _ []*core.Solution) {
		for e := 0; e < nw.NumEdges(); e++ {
			if a := nw.BandwidthCap(e) - nw.ResidualBandwidth(e); a > allocated {
				loaded, allocated = e, a
			}
		}
	})
	if loaded == -1 {
		t.Fatal("no loaded link in fixture")
	}
	err := eng.Apply(Mutation{Kind: LinkCapacity, ID: loaded, Capacity: allocated / 2})
	var merr *MalformedMutationError
	if !errors.As(err, &merr) {
		t.Fatalf("resize below allocation: want *MalformedMutationError, got %v", err)
	}
}

func TestApplyBatchIsAtomic(t *testing.T) {
	eng, nw := applyFixture(t, false)
	// A valid failure followed by a malformed event: neither applies.
	err := eng.Apply(
		Mutation{Kind: LinkState, ID: 0, Up: false},
		Mutation{Kind: LinkState, ID: nw.NumEdges() + 1, Up: false},
	)
	var merr *MalformedMutationError
	if !errors.As(err, &merr) {
		t.Fatalf("want *MalformedMutationError, got %v", err)
	}
	if merr.Index != 1 {
		t.Errorf("index = %d, want 1", merr.Index)
	}
	var up bool
	_ = eng.SnapshotState(func(n *sdn.Network, _ []*core.Solution) { up = n.LinkUp(0) })
	if !up {
		t.Error("valid prefix of a rejected batch was applied: link 0 went down")
	}
}

func TestApplyValidBatchTriggersRecovery(t *testing.T) {
	eng, nw := applyFixture(t, true)
	// Fail every link a specific live session uses: recovery must run.
	target := eng.Lives()[0]
	alloc := core.AllocationFor(target.Request, target.Tree)
	muts := make([]Mutation, 0, len(alloc.Links))
	for _, l := range alloc.Links {
		muts = append(muts, Mutation{Kind: LinkState, ID: l.Edge, Up: false})
	}
	if err := eng.Apply(muts...); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	rep := eng.LastRecovery()
	if rep == nil || len(rep.Outcomes) == 0 {
		t.Fatal("failure batch did not trigger a recovery pass")
	}
	// Without a recovery policy the same batch runs no pass and leaves
	// the damaged session live.
	plain, _ := applyFixture(t, false)
	if plain.RecoveryEnabled() {
		t.Fatal("RecoveryEnabled without a policy")
	}
	live := len(plain.Lives())
	if err := plain.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	if plain.LastRecovery() != nil || len(plain.Lives()) != live {
		t.Fatalf("engine without a policy recovered: report %v, %d -> %d live",
			plain.LastRecovery(), live, len(plain.Lives()))
	}
	// Restore; capacity resizes are residual-only and must not trigger
	// another pass.
	for i := range muts {
		muts[i].Up = true
	}
	if err := eng.Apply(muts...); err != nil {
		t.Fatal(err)
	}
	before := eng.LastRecovery()
	if err := eng.Apply(Mutation{Kind: LinkCapacity, ID: 0, Capacity: nw.BandwidthCap(0) * 2}); err != nil {
		t.Fatal(err)
	}
	if eng.LastRecovery() != before {
		t.Error("pure capacity resize triggered a recovery pass")
	}
}
