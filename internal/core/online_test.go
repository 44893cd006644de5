package core

import (
	"context"
	"math"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/nfv"
	"nfvmcast/internal/sdn"
)

// newCPAdmitter is sequential Online_CP on nw: a CPPlanner behind an
// Admitter.
func newCPAdmitter(nw *sdn.Network, model CostModel) (*Admitter, error) {
	p, err := NewCPPlanner(model)
	if err != nil {
		return nil, err
	}
	return NewAdmitter(nw, p), nil
}

// newCPKAdmitter is sequential Online_CPK on nw with server budget k.
func newCPKAdmitter(nw *sdn.Network, model CostModel, k int) (*Admitter, error) {
	p, err := NewCPKPlanner(model, k)
	if err != nil {
		return nil, err
	}
	return NewAdmitter(nw, p), nil
}

func TestDefaultCostModel(t *testing.T) {
	m := DefaultCostModel(100)
	if m.Alpha != 200 || m.Beta != 200 {
		t.Fatalf("alpha/beta = %v/%v, want 200/200", m.Alpha, m.Beta)
	}
	if m.SigmaV != 99 || m.SigmaE != 99 {
		t.Fatalf("sigma = %v/%v, want 99/99", m.SigmaV, m.SigmaE)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelValidate(t *testing.T) {
	bad := []CostModel{
		{Alpha: 1, Beta: 2, SigmaV: 1, SigmaE: 1},
		{Alpha: 2, Beta: 0.5, SigmaV: 1, SigmaE: 1},
		{Alpha: 2, Beta: 2, SigmaV: 0, SigmaE: 1},
		{Alpha: 2, Beta: 2, SigmaV: 1, SigmaE: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d: invalid model accepted: %+v", i, m)
		}
	}
}

func TestCostModelWeightsGrowWithUtilisation(t *testing.T) {
	nw := testNetwork(t, 30, 3)
	m := DefaultCostModel(nw.NumNodes())
	e := graph.EdgeID(0)
	w0 := m.LinkWeight(nw, e)
	if math.Abs(w0) > 1e-12 {
		t.Fatalf("idle link weight = %v, want 0", w0)
	}
	// Allocate half the capacity: weight must be sqrt(beta)-1.
	half := nw.BandwidthCap(e) / 2
	if err := nw.Allocate(sdn.Allocation{Links: map[graph.EdgeID]float64{e: half}}); err != nil {
		t.Fatal(err)
	}
	w1 := m.LinkWeight(nw, e)
	want := math.Sqrt(m.Beta) - 1
	if math.Abs(w1-want) > 1e-9 {
		t.Fatalf("half-utilised weight = %v, want %v", w1, want)
	}
	if m.LinkCost(nw, e) <= 0 {
		t.Fatal("half-utilised link cost should be positive")
	}
	v := nw.Servers()[0]
	if w := m.ServerWeight(nw, v); math.Abs(w) > 1e-12 {
		t.Fatalf("idle server weight = %v, want 0", w)
	}
}

func TestOnlineCPAdmitsAndAllocates(t *testing.T) {
	nw := testNetwork(t, 40, 5)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.DefaultGeneratorConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	before := nw.Snapshot()
	req, err := gen.Next()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := cp.Admit(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("first request rejected on an empty network: %v", err)
	}
	if err := sol.Tree.CheckDelivery(nw.Graph()); err != nil {
		t.Fatal(err)
	}
	if len(sol.Servers) != 1 {
		t.Fatalf("Online_CP used %d servers, want 1 (K=1)", len(sol.Servers))
	}
	if cp.AdmittedCount() != 1 || cp.RejectedCount() != 0 {
		t.Fatalf("counters = (%d,%d), want (1,0)", cp.AdmittedCount(), cp.RejectedCount())
	}
	// Resources actually allocated.
	changed := false
	for e := 0; e < nw.NumEdges(); e++ {
		if nw.ResidualBandwidth(e) < nw.BandwidthCap(e) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("admission did not allocate any bandwidth")
	}
	// Restoring the snapshot undoes it (sanity of test fixture).
	if err := nw.Restore(before); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineCPRejectionLeavesNetworkUntouched(t *testing.T) {
	nw := testNetwork(t, 30, 6)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	// Saturate all servers so every request must be rejected.
	servers := make(map[graph.NodeID]float64)
	for _, v := range nw.Servers() {
		servers[v] = nw.ResidualCompute(v)
	}
	if err := nw.Allocate(sdn.Allocation{Servers: servers}); err != nil {
		t.Fatal(err)
	}
	snap := nw.Snapshot()
	req := testRequest(t, nw, 10)
	if _, err := cp.Admit(context.Background(), req, nil); !IsRejection(err) {
		t.Fatalf("Admit on saturated servers = %v, want rejection", err)
	}
	// Residuals unchanged after rejection.
	for e := 0; e < nw.NumEdges(); e++ {
		if nw.ResidualBandwidth(e) != nw.BandwidthCap(e) {
			t.Fatalf("link %d residual changed by a rejected request", e)
		}
	}
	_ = snap
	if cp.AdmittedCount() != 0 || cp.RejectedCount() != 1 {
		t.Fatalf("counters = (%d,%d), want (0,1)", cp.AdmittedCount(), cp.RejectedCount())
	}
}

func TestOnlineCPSequenceInvariants(t *testing.T) {
	nw := testNetwork(t, 50, 12)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.DefaultGeneratorConfig(), 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		sol, aerr := cp.Admit(context.Background(), req, nil)
		if aerr != nil {
			if !IsRejection(aerr) {
				t.Fatalf("request %d: unexpected error %v", i, aerr)
			}
			continue
		}
		if derr := sol.Tree.CheckDelivery(nw.Graph()); derr != nil {
			t.Fatalf("request %d: %v", i, derr)
		}
	}
	if cp.AdmittedCount() == 0 {
		t.Fatal("nothing admitted in 150 requests")
	}
	if cp.AdmittedCount()+cp.RejectedCount() != 150 {
		t.Fatalf("counters don't add up: %d + %d != 150",
			cp.AdmittedCount(), cp.RejectedCount())
	}
	// Capacity invariants after the full sequence.
	for e := 0; e < nw.NumEdges(); e++ {
		if r := nw.ResidualBandwidth(e); r < -1e-9 || r > nw.BandwidthCap(e)+1e-9 {
			t.Fatalf("link %d residual %v outside [0, %v]", e, r, nw.BandwidthCap(e))
		}
	}
	for _, v := range nw.Servers() {
		if r := nw.ResidualCompute(v); r < -1e-9 || r > nw.ComputeCap(v)+1e-9 {
			t.Fatalf("server %d residual %v outside [0, %v]", v, r, nw.ComputeCap(v))
		}
	}
	if len(cp.Admitted()) != cp.AdmittedCount() {
		t.Fatal("Admitted() length mismatch")
	}
}

func TestOnlineSPSequence(t *testing.T) {
	nw := testNetwork(t, 50, 12)
	sp := NewAdmitter(nw, NewSPPlanner())
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.DefaultGeneratorConfig(), 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		sol, aerr := sp.Admit(context.Background(), req, nil)
		if aerr != nil {
			if !IsRejection(aerr) {
				t.Fatalf("request %d: unexpected error %v", i, aerr)
			}
			continue
		}
		if derr := sol.Tree.CheckDelivery(nw.Graph()); derr != nil {
			t.Fatalf("request %d: %v", i, derr)
		}
		if len(sol.Servers) != 1 {
			t.Fatalf("SP used %d servers", len(sol.Servers))
		}
	}
	if sp.AdmittedCount() == 0 {
		t.Fatal("SP admitted nothing")
	}
	if sp.AdmittedCount()+sp.RejectedCount() != 150 {
		t.Fatal("SP counters don't add up")
	}
	if len(sp.Admitted()) != sp.AdmittedCount() {
		t.Fatal("Admitted() length mismatch")
	}
}

// TestOnlineCPBeatsSPOnThroughput reproduces the paper's headline
// online result (Figs. 8-9): under sustained load the exponential
// cost model admits at least as many requests as the utilisation-
// oblivious SP heuristic.
func TestOnlineCPBeatsSPOnThroughput(t *testing.T) {
	nwCP := testNetwork(t, 50, 21)
	nwSP := testNetwork(t, 50, 21) // identical replica
	cp, err := newCPAdmitter(nwCP, DefaultCostModel(nwCP.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	sp := NewAdmitter(nwSP, NewSPPlanner())
	genCP, _ := multicast.NewGenerator(nwCP.NumNodes(), multicast.DefaultGeneratorConfig(), 33)
	genSP, _ := multicast.NewGenerator(nwSP.NumNodes(), multicast.DefaultGeneratorConfig(), 33)
	for i := 0; i < 300; i++ {
		rq, _ := genCP.Next()
		_, _ = cp.Admit(context.Background(), rq, nil)
		rq2, _ := genSP.Next()
		_, _ = sp.Admit(context.Background(), rq2, nil)
	}
	if cp.AdmittedCount() < sp.AdmittedCount() {
		t.Fatalf("Online_CP admitted %d < SP %d", cp.AdmittedCount(), sp.AdmittedCount())
	}
	t.Logf("Online_CP admitted %d, SP admitted %d", cp.AdmittedCount(), sp.AdmittedCount())
}

func TestOnlineCPBadModel(t *testing.T) {
	nw := testNetwork(t, 20, 2)
	if _, err := newCPAdmitter(nw, CostModel{Alpha: 0.5, Beta: 2, SigmaE: 1, SigmaV: 1}); err == nil {
		t.Fatal("invalid cost model accepted")
	}
}

func TestAllocationForBacktracking(t *testing.T) {
	// Hand-built pseudo tree with a double-traversed link.
	g := graph.New(3)
	e01 := g.MustAddEdge(0, 1, 1)
	e12 := g.MustAddEdge(1, 2, 1)
	tree := multicast.NewPseudoTree(0, []graph.NodeID{1}, []graph.NodeID{2})
	tree.AddHop(multicast.Hop{From: 0, To: 1, Edge: e01, Processed: false})
	tree.AddHop(multicast.Hop{From: 1, To: 2, Edge: e12, Processed: false})
	tree.AddHop(multicast.Hop{From: 2, To: 1, Edge: e12, Processed: true})
	req := &multicast.Request{ID: 1, Source: 0, Destinations: []graph.NodeID{1},
		BandwidthMbps: 50, Chain: nfv.MustChain(nfv.IDS, nfv.Firewall)}
	alloc := AllocationFor(req, tree)
	if alloc.Links[e01] != 50 {
		t.Fatalf("link 0-1 allocation = %v, want 50", alloc.Links[e01])
	}
	if alloc.Links[e12] != 100 {
		t.Fatalf("link 1-2 allocation = %v, want 100 (double traversal)", alloc.Links[e12])
	}
	if alloc.Servers[2] != req.ComputeDemandMHz() {
		t.Fatalf("server allocation = %v, want %v", alloc.Servers[2], req.ComputeDemandMHz())
	}
}

func TestOnlineSPStaticSequence(t *testing.T) {
	nw := testNetwork(t, 50, 16)
	st := NewAdmitter(nw, NewSPStaticPlanner())
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 17)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		sol, aerr := st.Admit(context.Background(), req, nil)
		if aerr != nil {
			if !IsRejection(aerr) {
				t.Fatalf("request %d: %v", i, aerr)
			}
			continue
		}
		if derr := sol.Tree.CheckDelivery(nw.Graph()); derr != nil {
			t.Fatalf("request %d: %v", i, derr)
		}
	}
	if st.AdmittedCount() == 0 {
		t.Fatal("static SP admitted nothing")
	}
	if st.AdmittedCount()+st.RejectedCount() != 120 {
		t.Fatal("counters don't add up")
	}
	if len(st.Admitted()) != st.AdmittedCount() {
		t.Fatal("Admitted() mismatch")
	}
	if st.LiveCount() != st.AdmittedCount() {
		t.Fatal("LiveCount mismatch")
	}
	// Departures work on the static variant too.
	first := st.Admitted()[0]
	if _, err := st.Depart(first.Request.ID); err != nil {
		t.Fatal(err)
	}
	if st.LiveCount() != st.AdmittedCount()-1 {
		t.Fatal("LiveCount after departure")
	}
	// SP variant LiveCount as well.
	sp := NewAdmitter(testNetwork(t, 30, 18), NewSPPlanner())
	if sp.LiveCount() != 0 {
		t.Fatal("fresh SP LiveCount != 0")
	}
}
