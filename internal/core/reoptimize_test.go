package core

import (
	"context"
	"testing"

	"nfvmcast/internal/multicast"
)

// admitWithSP loads a network through the SP heuristic (deliberately
// suboptimal placements) and returns the admitted sessions.
func admitWithSP(t *testing.T, nwSeed, wlSeed int64, count int) (
	sessions []*Solution, nw interface {
		NumEdges() int
		ResidualBandwidth(int) float64
		BandwidthCap(int) float64
	},
) {
	t.Helper()
	network := testNetwork(t, 60, nwSeed)
	sp := NewAdmitter(network, NewSPPlanner())
	gen, err := multicast.NewGenerator(network.NumNodes(), multicast.OnlineGeneratorConfig(), wlSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		if sol, aerr := sp.Admit(context.Background(), req, nil); aerr == nil {
			sessions = append(sessions, sol)
		}
	}
	if len(sessions) < 10 {
		t.Fatalf("fixture admitted only %d sessions", len(sessions))
	}
	reopt, improved, saved, err := Reoptimize(network, sessions, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// SP trees (hop-count shortest paths, no Steiner optimisation)
	// leave room; the pass must find at least one improvement.
	if improved == 0 || saved <= 0 {
		t.Fatalf("reoptimize improved %d sessions, saved %v", improved, saved)
	}
	var before, after float64
	for i := range sessions {
		before += sessions[i].OperationalCost
		after += reopt[i].OperationalCost
		if reopt[i].OperationalCost > sessions[i].OperationalCost+1e-9 {
			t.Fatalf("session %d got worse: %v -> %v",
				sessions[i].Request.ID, sessions[i].OperationalCost, reopt[i].OperationalCost)
		}
		if derr := reopt[i].Tree.CheckDelivery(network.Graph()); derr != nil {
			t.Fatalf("session %d invalid after reoptimize: %v", sessions[i].Request.ID, derr)
		}
	}
	if after > before {
		t.Fatalf("total cost rose: %v -> %v", before, after)
	}
	t.Logf("reoptimize: %d/%d improved, %.1f saved (%.1f%%)",
		improved, len(sessions), saved, 100*saved/before)

	// Capacity invariants after the pass.
	for e := 0; e < network.NumEdges(); e++ {
		if r := network.ResidualBandwidth(e); r < -1e-6 || r > network.BandwidthCap(e)+1e-6 {
			t.Fatalf("link %d residual %v out of bounds after reoptimize", e, r)
		}
	}
	return sessions, network
}

func TestReoptimizeImprovesSPPlacements(t *testing.T) {
	admitWithSP(t, 8, 9, 80)
}

func TestReoptimizeIdempotentOnOptimal(t *testing.T) {
	nw := testNetwork(t, 40, 21)
	var sessions []*Solution
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 22)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		sol, aerr := ApproMulti(nw, req, Options{K: 2, Capacitated: true})
		if aerr != nil {
			continue
		}
		if err := nw.Allocate(AllocationFor(req, sol.Tree)); err != nil {
			continue
		}
		sessions = append(sessions, sol)
	}
	// Sessions planned by ApproMulti on an emptier network may still
	// improve slightly after others depart, but a second pass over
	// the SAME state must be a no-op.
	first, _, _, err := Reoptimize(nw, sessions, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	second, improved, saved, err := Reoptimize(nw, first, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if improved != 0 || saved != 0 {
		t.Fatalf("second pass improved %d (saved %v); want converged", improved, saved)
	}
	for i := range first {
		if second[i] != first[i] {
			t.Fatalf("second pass replaced session %d", i)
		}
	}
}

func TestReoptimizeRejectsBrokenInput(t *testing.T) {
	nw := testNetwork(t, 30, 2)
	if _, _, _, err := Reoptimize(nw, []*Solution{nil}, Options{K: 1}); err == nil {
		t.Fatal("nil session accepted")
	}
	if _, _, _, err := Reoptimize(nw, []*Solution{{}}, Options{K: 1}); err == nil {
		t.Fatal("empty session accepted")
	}
}
