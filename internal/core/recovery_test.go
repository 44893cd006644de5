package core

// Failure-recovery workflow: fail a link carried by an admitted
// session, find affected sessions, depart them, and re-admit on the
// degraded network. Exercises the failure-injection extension end to
// end.

import (
	"context"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
)

func TestFailureRecoveryWorkflow(t *testing.T) {
	nw := testNetwork(t, 50, 31)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Admit a handful of sessions and remember their allocations.
	type session struct {
		req   *multicast.Request
		alloc map[graph.EdgeID]float64
	}
	var sessions []session
	for len(sessions) < 10 {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		sol, aerr := cp.Admit(context.Background(), req, nil)
		if aerr != nil {
			continue
		}
		sessions = append(sessions, session{
			req:   req,
			alloc: AllocationFor(req, sol.Tree).Links,
		})
	}

	// Fail one link used by the first session.
	var failed graph.EdgeID = -1
	for e := range sessions[0].alloc {
		failed = e
		break
	}
	if failed == -1 {
		t.Fatal("first session uses no links?")
	}
	if err := nw.SetLinkUp(failed, false); err != nil {
		t.Fatal(err)
	}

	// Identify and depart the affected sessions.
	reAdmit := make([]*multicast.Request, 0, len(sessions))
	for _, s := range sessions {
		if _, down := s.alloc[failed]; !down {
			continue
		}
		if _, derr := cp.Depart(s.req.ID); derr != nil {
			t.Fatalf("depart %d: %v", s.req.ID, derr)
		}
		reAdmit = append(reAdmit, s.req)
	}
	if len(reAdmit) == 0 {
		t.Fatal("no session used the failed link")
	}

	// Re-admit on the degraded network: new trees must avoid the
	// failed link.
	recovered := 0
	for _, req := range reAdmit {
		fresh := req.Clone()
		fresh.ID += 1000 // new session identity
		sol, aerr := cp.Admit(context.Background(), fresh, nil)
		if aerr != nil {
			if IsRejection(aerr) {
				continue // degraded network may genuinely lack room
			}
			t.Fatalf("re-admit %d: %v", fresh.ID, aerr)
		}
		recovered++
		if _, uses := sol.Tree.LinkLoads()[failed]; uses {
			t.Fatalf("re-admitted session %d routed over the failed link", fresh.ID)
		}
		if derr := sol.Tree.CheckDelivery(nw.Graph()); derr != nil {
			t.Fatalf("re-admitted session %d: %v", fresh.ID, derr)
		}
	}
	if recovered == 0 {
		t.Fatal("no affected session could be re-admitted")
	}

	// Repair and confirm the link is usable again.
	if err := nw.SetLinkUp(failed, true); err != nil {
		t.Fatal(err)
	}
	if !nw.LinkUp(failed) {
		t.Fatal("link still down after repair")
	}
}

func TestApproMultiAvoidsFailedServer(t *testing.T) {
	nw := testNetwork(t, 40, 17)
	req := testRequest(t, nw, 4)
	sol, err := ApproMulti(nw, req, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Fail the chosen server; the algorithm must pick another.
	down := sol.Servers[0]
	if err := nw.SetServerUp(down, false); err != nil {
		t.Fatal(err)
	}
	sol2, err := ApproMulti(nw, req, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sol2.Servers {
		if v == down {
			t.Fatalf("failed server %d reused", down)
		}
	}
	if err := sol2.Tree.CheckDelivery(nw.Graph()); err != nil {
		t.Fatal(err)
	}
	if sol2.OperationalCost < sol.OperationalCost-1e-9 {
		t.Fatal("losing a server cannot reduce the optimal cost")
	}
}
