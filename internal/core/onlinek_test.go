package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

func TestOnlineCPKValidation(t *testing.T) {
	nw := testNetwork(t, 30, 2)
	if _, err := newCPKAdmitter(nw, DefaultCostModel(nw.NumNodes()), 0); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := newCPKAdmitter(nw, CostModel{Alpha: 0.5}, 2); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestOnlineCPKSequenceInvariants(t *testing.T) {
	nw := testNetwork(t, 50, 14)
	ok2, err := newCPKAdmitter(nw, DefaultCostModel(nw.NumNodes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		sol, aerr := ok2.Admit(context.Background(), req, nil)
		if aerr != nil {
			if !IsRejection(aerr) {
				t.Fatalf("request %d: %v", i, aerr)
			}
			continue
		}
		if len(sol.Servers) < 1 || len(sol.Servers) > 2 {
			t.Fatalf("request %d used %d servers, want 1..2", i, len(sol.Servers))
		}
		if derr := sol.Tree.CheckDelivery(nw.Graph()); derr != nil {
			t.Fatalf("request %d: %v", i, derr)
		}
	}
	if ok2.AdmittedCount() == 0 {
		t.Fatal("nothing admitted")
	}
	if ok2.AdmittedCount()+ok2.RejectedCount() != 120 {
		t.Fatal("counters don't add up")
	}
	if ok2.LiveCount() != ok2.AdmittedCount() {
		t.Fatal("live count mismatch without departures")
	}
	if len(ok2.Admitted()) != ok2.AdmittedCount() {
		t.Fatal("Admitted() length mismatch")
	}
	for e := 0; e < nw.NumEdges(); e++ {
		if r := nw.ResidualBandwidth(e); r < -1e-9 || r > nw.BandwidthCap(e)+1e-9 {
			t.Fatalf("link %d residual %v out of bounds", e, r)
		}
	}
	// Departures drain cleanly.
	first := ok2.Admitted()[0]
	if _, err := ok2.Depart(first.Request.ID); err != nil {
		t.Fatal(err)
	}
	if ok2.LiveCount() != ok2.AdmittedCount()-1 {
		t.Fatal("departure did not decrement live count")
	}
}

// TestOnlineCPKAtLeastCompetitiveWithK1 compares throughput across K
// on identical replicas: more placement freedom should not admit
// dramatically fewer requests (it may admit slightly fewer because
// multi-server trees consume computing on every replica).
func TestOnlineCPKAtLeastCompetitiveWithK1(t *testing.T) {
	counts := make(map[int]int)
	for _, k := range []int{1, 2} {
		nw := testNetwork(t, 50, 26)
		adm, err := newCPKAdmitter(nw, DefaultCostModel(nw.NumNodes()), k)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 27)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			req, gerr := gen.Next()
			if gerr != nil {
				t.Fatal(gerr)
			}
			_, _ = adm.Admit(context.Background(), req, nil)
		}
		counts[k] = adm.AdmittedCount()
	}
	t.Logf("admitted: K=1 %d, K=2 %d", counts[1], counts[2])
	if counts[2] < counts[1]*8/10 {
		t.Fatalf("K=2 admitted %d, far below K=1's %d", counts[2], counts[1])
	}
}

// planPerCandidateReference is CPKPlanner.Plan as it was before
// candidates were priced on scratch: every subset through the unskipped
// KMB pipeline, a tree built per candidate, thresholds and selection
// cost read off its LinkLoads. Kept as the decision oracle.
func (p *CPKPlanner) planPerCandidateReference(nw *sdn.Network, req *multicast.Request) (*Solution, error) {
	disableSubsetPruning = true
	defer func() { disableSubsetPruning = false }()
	w, spc := p.cache.acquire(nw, req)
	if len(w.servers) == 0 {
		return nil, ErrComputeExhausted
	}
	var arena PlanArena
	spSrc, err := spc.fromWith(req.Source, &arena.ws)
	if err != nil {
		return nil, err
	}
	var candidates []graph.NodeID
	omega := make(map[graph.NodeID]float64)
	spSrv := make(map[graph.NodeID]*graph.ShortestPaths)
	for _, v := range w.servers {
		wv := p.model.ServerWeight(nw, v)
		if !spSrc.Reachable(v) || wv >= p.model.SigmaV {
			continue
		}
		if spSrv[v], err = spc.fromWith(v, &arena.ws); err != nil {
			return nil, err
		}
		candidates = append(candidates, v)
		omega[v] = spSrc.Dist[v] + wv
	}
	for _, d := range req.Destinations {
		if !spSrc.Reachable(d) {
			return nil, ErrUnreachable
		}
	}
	if len(candidates) == 0 {
		return nil, ErrThresholdExceeded
	}
	ev, err := newClosureEvaluator(w, req, spSrv, spc, &arena.ws)
	if err != nil {
		return nil, err
	}
	ev.prepare(&arena.eval)
	hostWeight := make(map[graph.EdgeID]float64, w.g.NumEdges())
	for le := 0; le < w.g.NumEdges(); le++ {
		hostWeight[w.hostEdge(le)] = w.g.Weight(le)
	}
	bestSel := graph.Infinity
	var bestTree *multicast.PseudoTree
	consider := func(servers []graph.NodeID, realEdges []graph.EdgeID) {
		tree, derr := decompose(w, req, spSrc, servers, realEdges, &arena.eval)
		if derr != nil {
			return
		}
		loads := tree.LinkLoads()
		treeEdges := make([]graph.EdgeID, 0, len(loads))
		for e := range loads {
			treeEdges = append(treeEdges, e)
		}
		sort.Ints(treeEdges)
		sel := 0.0
		for _, e := range treeEdges {
			if p.model.LinkWeight(nw, e) >= p.model.SigmaE {
				return
			}
			sel += float64(loads[e]) * hostWeight[e]
		}
		for _, v := range servers {
			sel += p.model.ServerWeight(nw, v)
		}
		if sel < bestSel {
			bestSel, bestTree = sel, tree
		}
	}
	forEachSubset(candidates, p.k, func(subset []graph.NodeID) bool {
		if servers, realEdges, _, cerr := ev.steiner(subset, omega, &arena.eval); cerr == nil {
			consider(servers, realEdges)
		}
		return true
	})
	for _, v := range candidates {
		if realEdges, _, rerr := ev.steinerRooted(v, &arena.eval); rerr == nil {
			consider([]graph.NodeID{v}, realEdges)
		}
	}
	if bestTree == nil {
		return nil, ErrThresholdExceeded
	}
	return &Solution{
		Request: req, Tree: bestTree, Servers: bestTree.Servers,
		OperationalCost: OperationalCost(nw, req, bestTree), SelectionCost: bestSel,
	}, nil
}

// TestCPKPlanMatchesPerCandidateReference drives Online_CPK through a
// loading network — each compared plan is committed, so exponential
// weights grow, links drop out of the residual view and thresholds start
// to fire — and demands the reference's tree, costs and verdict for
// every request. A low σ_e makes threshold (b) reject candidates.
func TestCPKPlanMatchesPerCandidateReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nw     *sdn.Network
		k      int
		sigmaE float64
	}{
		{"geant/K=3", geantNetwork(t, 4), 3, 0},
		{"waxman50/K=2", testNetwork(t, 50, 14), 2, 0},
		{"waxman50/K=3/tight", testNetwork(t, 50, 14), 3, 0.02},
	} {
		nw := tc.nw
		model := DefaultCostModel(nw.NumNodes())
		if tc.sigmaE > 0 {
			model.SigmaE = tc.sigmaE
		}
		prod, err := NewCPKPlanner(model, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewCPKPlanner(model, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 15)
		if err != nil {
			t.Fatal(err)
		}
		admitted, rejected := 0, 0
		for i := 0; i < 150; i++ {
			req, gerr := gen.Next()
			if gerr != nil {
				t.Fatal(gerr)
			}
			label := fmt.Sprintf("%s/req=%d", tc.name, i)
			want, werr := ref.planPerCandidateReference(nw, req)
			got, perr := prod.Plan(context.Background(), nw, req, nil)
			if (werr == nil) != (perr == nil) {
				t.Fatalf("%s: plan err %v, reference err %v", label, perr, werr)
			}
			if werr != nil {
				if !errors.Is(perr, werr) {
					t.Fatalf("%s: plan err %v, reference err %v", label, perr, werr)
				}
				rejected++
				continue
			}
			assertSolutionsIdentical(t, label, want, got)
			admitted++
			// Back-tracking plans can cross a link twice and overdraw
			// it; Admitter rejects those at commit, here they just stay
			// uncommitted.
			_ = nw.Allocate(AllocationFor(req, got.Tree))
		}
		if admitted == 0 || (tc.sigmaE > 0 && rejected == 0) {
			t.Fatalf("%s: %d admitted, %d rejected — fixture exercises nothing", tc.name, admitted, rejected)
		}
	}
}
