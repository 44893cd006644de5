package core

import (
	"context"
	"testing"

	"nfvmcast/internal/multicast"
)

// admitWithSP loads a network through the SP heuristic (deliberately
// suboptimal placements), re-optimises the admitted sessions and checks
// the pass.
func admitWithSP(t *testing.T, nwSeed, wlSeed int64, count int) {
	t.Helper()
	network := testNetwork(t, 60, nwSeed)
	sp := NewAdmitter(network, NewSPPlanner())
	gen, err := multicast.NewGenerator(network.NumNodes(), multicast.OnlineGeneratorConfig(), wlSeed)
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[int]*Solution)
	for i := 0; i < count; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		if sol, aerr := sp.Admit(context.Background(), req, nil); aerr == nil {
			before[req.ID] = sol
		}
	}
	if len(before) < 10 {
		t.Fatalf("fixture admitted only %d sessions", len(before))
	}
	moved, saved, err := sp.Reoptimize(Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// SP trees (hop-count shortest paths, no Steiner optimisation)
	// leave room; the pass must find at least one improvement.
	if len(moved) == 0 || saved <= 0 {
		t.Fatalf("reoptimize improved %d sessions, saved %v", len(moved), saved)
	}
	for i, sol := range moved {
		if i > 0 && sol.Request.ID <= moved[i-1].Request.ID {
			t.Fatal("moved sessions not in ascending request-ID order")
		}
		if live, _ := sp.LiveSolution(sol.Request.ID); live != sol {
			t.Fatalf("session %d: the live table does not record its move", sol.Request.ID)
		}
	}
	var pre, post float64
	for _, sol := range sp.Lives() {
		old := before[sol.Request.ID]
		pre += old.OperationalCost
		post += sol.OperationalCost
		if sol.OperationalCost > old.OperationalCost+1e-9 {
			t.Fatalf("session %d got worse: %v -> %v",
				sol.Request.ID, old.OperationalCost, sol.OperationalCost)
		}
		if derr := sol.Tree.CheckDelivery(network.Graph()); derr != nil {
			t.Fatalf("session %d invalid after reoptimize: %v", sol.Request.ID, derr)
		}
	}
	if post > pre {
		t.Fatalf("total cost rose: %v -> %v", pre, post)
	}
	t.Logf("reoptimize: %d/%d improved, %.1f saved (%.1f%%)",
		len(moved), len(before), saved, 100*saved/pre)

	// Capacity invariants after the pass.
	for e := 0; e < network.NumEdges(); e++ {
		if r := network.ResidualBandwidth(e); r < -1e-6 || r > network.BandwidthCap(e)+1e-6 {
			t.Fatalf("link %d residual %v out of bounds after reoptimize", e, r)
		}
	}
}

func TestReoptimizeImprovesSPPlacements(t *testing.T) {
	admitWithSP(t, 8, 9, 80)
}

func TestReoptimizeIdempotentOnOptimal(t *testing.T) {
	nw := testNetwork(t, 40, 21)
	adm := NewAdmitter(nw, NewApproCapPlanner(Options{K: 2}))
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 22)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		_, _ = adm.Admit(context.Background(), req, nil)
	}
	if adm.LiveCount() == 0 {
		t.Fatal("fixture admitted nothing")
	}
	// Sessions planned by Appro_Multi on an emptier network may still
	// improve slightly after others arrive, but a second pass over
	// the SAME state must be a no-op.
	if _, _, err := adm.Reoptimize(Options{K: 2}); err != nil {
		t.Fatal(err)
	}
	first := adm.Lives()
	moved, saved, err := adm.Reoptimize(Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 0 || saved != 0 {
		t.Fatalf("second pass improved %d (saved %v); want converged", len(moved), saved)
	}
	for i, sol := range adm.Lives() {
		if sol != first[i] {
			t.Fatalf("second pass replaced session %d", sol.Request.ID)
		}
	}
}

// TestReoptimizeRejectsBrokenInput: a live table out of step with its
// network — here a session whose bundle was already released behind the
// admitter's back — stops the pass with an error before any residual
// changes.
func TestReoptimizeRejectsBrokenInput(t *testing.T) {
	nw := testNetwork(t, 30, 2)
	adm := NewAdmitter(nw, NewSPPlanner())
	req := testRequest(t, nw, 3)
	sol, err := adm.Admit(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Release(AllocationFor(req, sol.Tree)); err != nil {
		t.Fatal(err)
	}
	moved, _, err := adm.Reoptimize(Options{K: 1})
	if err == nil || len(moved) != 0 {
		t.Fatalf("pass over a released session moved %d sessions, err %v", len(moved), err)
	}
	for e := 0; e < nw.NumEdges(); e++ {
		if nw.ResidualBandwidth(e) != nw.BandwidthCap(e) {
			t.Fatalf("link %d: the failed pass moved residuals", e)
		}
	}
}
