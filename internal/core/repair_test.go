package core

import (
	"context"
	"errors"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/sdn"
)

// TestRepairReroutePinnedServer: a local repair keeps the damaged
// session's server, avoids every down link, and reaches all
// destinations with a valid service-chained tree.
func TestRepairReroutePinnedServer(t *testing.T) {
	nw := testNetwork(t, 50, 3)
	req := testRequest(t, nw, 5)
	sol, err := ApproMulti(nw, req, Options{K: 1, Capacitated: true})
	if err != nil {
		t.Fatal(err)
	}
	server := sol.Servers[0]

	// Fail one tree link that is not a bridge; the repair must route
	// around it with the same server.
	var failed graph.EdgeID = -1
	isBridge := make(map[graph.EdgeID]bool)
	for _, e := range graph.Bridges(nw.Graph()) {
		isBridge[e] = true
	}
	for _, l := range AllocationFor(req, sol.Tree).Links {
		if !isBridge[l.Edge] {
			failed = l.Edge
			break
		}
	}
	if failed == -1 {
		t.Skip("every tree link is a bridge on this draw")
	}
	if err := nw.SetLinkUp(failed, false); err != nil {
		t.Fatal(err)
	}

	rsol, err := RepairReroute(nw, req, server, nil)
	if err != nil {
		t.Fatalf("RepairReroute: %v", err)
	}
	if len(rsol.Servers) != 1 || rsol.Servers[0] != server {
		t.Fatalf("repair moved the server: %v, want [%d]", rsol.Servers, server)
	}
	if _, used := linkMbps(AllocationFor(req, rsol.Tree), failed); used {
		t.Fatal("repaired tree still crosses the failed link")
	}
	// Packet replay proves the repaired tree still delivers
	// service-chained traffic to every destination.
	if err := nw.Allocate(AllocationFor(req, rsol.Tree)); err != nil {
		t.Fatalf("allocate repair: %v", err)
	}
	ctrl := sdn.NewController(nw)
	if err := ctrl.Install(req, rsol.Tree); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.VerifyDelivery(req.ID); err != nil {
		t.Fatalf("repaired tree fails delivery: %v", err)
	}
}

// TestRepairRerouteSentinels: infeasible repairs surface the plain
// capacity sentinels without an ErrRejected wrap, so the recovery
// driver can treat them as fallback triggers.
func TestRepairRerouteSentinels(t *testing.T) {
	nw := testNetwork(t, 50, 3)
	req := testRequest(t, nw, 5)
	server := nw.Servers()[0]

	if err := nw.SetServerUp(server, false); err != nil {
		t.Fatal(err)
	}
	_, err := RepairReroute(nw, req, server, nil)
	if !errors.Is(err, sdn.ErrServerDown) {
		t.Fatalf("down pinned server: %v, want ErrServerDown", err)
	}
	if errors.Is(err, ErrRejected) {
		t.Fatal("repair infeasibility must not carry ErrRejected")
	}
}

// TestApproMultiContextCanceled: a canceled context aborts the subset
// sweep with an error satisfying IsCanceled, not a rejection.
func TestApproMultiContextCanceled(t *testing.T) {
	nw := testNetwork(t, 50, 3)
	req := testRequest(t, nw, 5)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ApproMultiContext(ctx, nw, req, Options{K: 2})
	if !IsCanceled(err) {
		t.Fatalf("canceled solve returned %v, want IsCanceled", err)
	}

	// A live context is byte-identical to the context-free entry point.
	a, err := ApproMultiContext(context.Background(), nw, req, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ApproMulti(nw, req, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.OperationalCost != b.OperationalCost || len(a.Servers) != len(b.Servers) {
		t.Fatalf("context entry point diverged: %v/%v vs %v/%v",
			a.OperationalCost, a.Servers, b.OperationalCost, b.Servers)
	}
}

// TestPlannersCancelBetweenCandidates mirrors the check for the
// online planner path used by the engine: every registered planner's
// Plan, called directly with a canceled context (so the admitter's
// entry check cannot answer for it), stops with an error for which
// IsCanceled holds and IsRejection does not.
func TestPlannersCancelBetweenCandidates(t *testing.T) {
	nw := testNetwork(t, 50, 3)
	req := testRequest(t, nw, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range Planners() {
		p, err := spec.New(PlannerOptions{Nodes: nw.NumNodes()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(context.Background(), nw, req, nil); err != nil {
			t.Fatalf("%s: fixture request not admissible: %v", spec.Name, err)
		}
		if _, err := p.Plan(ctx, nw, req, nil); !IsCanceled(err) || IsRejection(err) {
			t.Fatalf("%s: canceled plan returned %v, want a cancellation", spec.Name, err)
		}
	}
}
