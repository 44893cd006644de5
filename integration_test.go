package nfvmcast_test

// Full-lifecycle integration test across every module: topology →
// network → online admission → flow-table installation → packet
// verification → link failure → re-planning → re-optimisation →
// departures, with capacity and delivery invariants checked at each
// stage.

import (
	"context"
	"math/rand"
	"testing"

	"nfvmcast"
)

func TestIntegrationFullLifecycle(t *testing.T) {
	const (
		n    = 70
		seed = 101
	)
	topo, err := nfvmcast.WaxmanDegree(n, nfvmcast.DefaultAvgDegree, 0.14, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	nw, err := nfvmcast.NewNetwork(topo, nfvmcast.DefaultNetworkConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(n))
	if err != nil {
		t.Fatal(err)
	}
	cp := nfvmcast.NewAdmitter(nw, planner)
	ctrl, err := nfvmcast.NewControllerWithRuleLimit(nw, 200)
	if err != nil {
		t.Fatal(err)
	}

	checkInvariants := func(stage string) {
		t.Helper()
		for e := 0; e < nw.NumEdges(); e++ {
			if r := nw.ResidualBandwidth(e); r < -1e-6 || r > nw.BandwidthCap(e)+1e-6 {
				t.Fatalf("%s: link %d residual %v out of bounds", stage, e, r)
			}
		}
		for _, v := range nw.Servers() {
			if r := nw.ResidualCompute(v); r < -1e-6 || r > nw.ComputeCap(v)+1e-6 {
				t.Fatalf("%s: server %d residual %v out of bounds", stage, v, r)
			}
		}
	}

	// Stage 1: admit a workload, install and verify every session.
	gen, err := nfvmcast.NewGenerator(n, nfvmcast.OnlineGeneratorConfig(), seed+2)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[int]*nfvmcast.Solution)
	for i := 0; i < 90; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		sol, aerr := cp.Admit(context.Background(), req, nil)
		if aerr != nil {
			if !nfvmcast.IsRejection(aerr) {
				t.Fatalf("admission %d: %v", i, aerr)
			}
			continue
		}
		if err := ctrl.Install(req, sol.Tree); err != nil {
			t.Fatalf("install %d: %v", req.ID, err)
		}
		if err := ctrl.VerifyDelivery(req.ID); err != nil {
			t.Fatalf("verify %d: %v", req.ID, err)
		}
		live[req.ID] = sol
	}
	if len(live) < 30 {
		t.Fatalf("only %d sessions admitted", len(live))
	}
	checkInvariants("after admission")

	// Stage 2: fail a used, non-bridge link; re-plan affected sessions.
	isBridge := make(map[nfvmcast.EdgeID]bool)
	for _, e := range nfvmcast.Bridges(nw.Graph()) {
		isBridge[e] = true
	}
	failed := nfvmcast.EdgeID(-1)
	var bestUtil float64
	for e := 0; e < nw.NumEdges(); e++ {
		if u := nw.LinkUtilization(e); u > bestUtil && !isBridge[e] {
			failed, bestUtil = e, u
		}
	}
	if failed == -1 {
		t.Fatal("no non-bridge link carries load")
	}
	if err := nw.SetLinkUp(failed, false); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for id, sol := range live {
		if !nw.AffectedBy(nfvmcast.AllocationFor(sol.Request, sol.Tree)) {
			continue
		}
		if _, err := cp.Depart(id); err != nil {
			t.Fatalf("depart %d: %v", id, err)
		}
		if err := ctrl.Uninstall(id); err != nil {
			t.Fatalf("uninstall %d: %v", id, err)
		}
		delete(live, id)
		fresh := sol.Request.Clone()
		fresh.ID += 10000
		newSol, aerr := cp.Admit(context.Background(), fresh, nil)
		if aerr != nil {
			continue // degraded network may reject
		}
		if _, uses := newSol.Tree.LinkLoads()[failed]; uses {
			t.Fatalf("re-planned session %d crosses the failed link", fresh.ID)
		}
		if err := ctrl.Install(fresh, newSol.Tree); err != nil {
			t.Fatalf("re-install %d: %v", fresh.ID, err)
		}
		if err := ctrl.VerifyDelivery(fresh.ID); err != nil {
			t.Fatalf("re-verify %d: %v", fresh.ID, err)
		}
		live[fresh.ID] = newSol
		recovered++
	}
	checkInvariants("after failover")
	if err := nw.SetLinkUp(failed, true); err != nil {
		t.Fatal(err)
	}
	_ = recovered

	// Stage 3: re-optimise the surviving sessions; install the
	// replacements and confirm total cost never rises.
	sessions := make([]*nfvmcast.Solution, 0, len(live))
	for _, sol := range live {
		sessions = append(sessions, sol)
	}
	reopt, improved, saved, err := nfvmcast.Reoptimize(nw, sessions, nfvmcast.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if saved < 0 {
		t.Fatalf("reoptimize saved %v < 0", saved)
	}
	for i := range sessions {
		if reopt[i] == sessions[i] {
			continue // unchanged
		}
		id := sessions[i].Request.ID
		// Tell the admitter the session is now realised by the new
		// tree, so its eventual departure releases the right bundle.
		if err := cp.Replace(id, reopt[i]); err != nil {
			t.Fatalf("replace %d: %v", id, err)
		}
		if err := ctrl.Uninstall(id); err != nil {
			t.Fatalf("uninstall for reoptimize %d: %v", id, err)
		}
		if err := ctrl.Install(reopt[i].Request, reopt[i].Tree); err != nil {
			t.Fatalf("reinstall %d: %v", id, err)
		}
		if err := ctrl.VerifyDelivery(id); err != nil {
			t.Fatalf("verify reoptimized %d: %v", id, err)
		}
		live[id] = reopt[i]
	}
	checkInvariants("after reoptimize")
	t.Logf("lifecycle: %d live sessions, %d recovered, %d reoptimized (%.1f saved)",
		len(live), recovered, improved, saved)

	// Stage 4: drain everything; the network must return to pristine
	// residuals.
	for id := range live {
		if _, err := cp.Depart(id); err != nil {
			t.Fatalf("final depart %d: %v", id, err)
		}
		if err := ctrl.Uninstall(id); err != nil {
			t.Fatalf("final uninstall %d: %v", id, err)
		}
	}
	if cp.LiveCount() != 0 {
		t.Fatalf("live count %d after drain", cp.LiveCount())
	}
	if ctrl.TotalRules() != 0 {
		t.Fatalf("%d rules remain after drain", ctrl.TotalRules())
	}
	const tol = 1e-4
	for e := 0; e < nw.NumEdges(); e++ {
		if d := nw.ResidualBandwidth(e) - nw.BandwidthCap(e); d < -tol || d > tol {
			t.Fatalf("link %d residual %v != capacity %v after drain",
				e, nw.ResidualBandwidth(e), nw.BandwidthCap(e))
		}
	}
	for _, v := range nw.Servers() {
		if d := nw.ResidualCompute(v) - nw.ComputeCap(v); d < -tol || d > tol {
			t.Fatalf("server %d residual %v != capacity %v after drain",
				v, nw.ResidualCompute(v), nw.ComputeCap(v))
		}
	}
}
