package nfvmcast_test

// End-to-end tests of the public API, written as an external user of
// the library would use it.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nfvmcast"
)

func buildNetwork(t *testing.T, seed int64) *nfvmcast.Network {
	t.Helper()
	topo, err := nfvmcast.WaxmanDegree(60, nfvmcast.DefaultAvgDegree, 0.14, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	nw, err := nfvmcast.NewNetwork(topo, nfvmcast.DefaultNetworkConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestPublicOfflineFlow(t *testing.T) {
	nw := buildNetwork(t, 5)
	req := &nfvmcast.Request{
		ID:            1,
		Source:        0,
		Destinations:  []nfvmcast.NodeID{10, 20, 30},
		BandwidthMbps: 120,
		Chain:         nfvmcast.MustChain(nfvmcast.NAT, nfvmcast.IDS),
	}
	sol, err := nfvmcast.ApproMulti(nw, req, nfvmcast.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.OperationalCost <= 0 {
		t.Fatalf("cost = %v", sol.OperationalCost)
	}
	base, err := nfvmcast.AlgOneServer(nw, req, false)
	if err != nil {
		t.Fatal(err)
	}
	if sol.OperationalCost > base.OperationalCost+1e-6 {
		t.Fatalf("ApproMulti %v worse than baseline %v",
			sol.OperationalCost, base.OperationalCost)
	}
	near, err := nfvmcast.AlgOneServerNearest(nw, req, false)
	if err != nil {
		t.Fatal(err)
	}
	if base.OperationalCost > near.OperationalCost+1e-6 {
		t.Fatal("jointly-optimised baseline worse than nearest-server variant")
	}

	// Commit, install, verify end to end.
	if err := nw.Allocate(nfvmcast.AllocationFor(req, sol.Tree)); err != nil {
		t.Fatal(err)
	}
	ctrl := nfvmcast.NewController(nw)
	if err := ctrl.Install(req, sol.Tree); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.VerifyDelivery(req.ID); err != nil {
		t.Fatal(err)
	}
}

func TestPublicOnlineFlow(t *testing.T) {
	nw := buildNetwork(t, 9)
	planner, err := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	cp := nfvmcast.NewAdmitter(nw, planner)
	gen, err := nfvmcast.NewGenerator(nw.NumNodes(), nfvmcast.OnlineGeneratorConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i := 0; i < 50; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		sol, aerr := cp.Admit(context.Background(), req, nil)
		if aerr != nil {
			if !nfvmcast.IsRejection(aerr) {
				t.Fatal(aerr)
			}
			continue
		}
		admitted++
		if derr := sol.Tree.CheckDelivery(nw.Graph()); derr != nil {
			t.Fatal(derr)
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if cp.AdmittedCount() != admitted {
		t.Fatalf("AdmittedCount = %d, want %d", cp.AdmittedCount(), admitted)
	}
	// Departure path through the façade.
	first := cp.Admitted()[0]
	if _, err := cp.Depart(first.Request.ID); err != nil {
		t.Fatal(err)
	}
	if cp.LiveCount() != admitted-1 {
		t.Fatalf("LiveCount = %d, want %d", cp.LiveCount(), admitted-1)
	}
}

func TestPublicGraphHelpers(t *testing.T) {
	g := nfvmcast.NewGraph(4)
	for i := 0; i < 3; i++ {
		if _, err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := nfvmcast.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Dist[3] != 3 {
		t.Fatalf("Dist[3] = %v, want 3", sp.Dist[3])
	}
	st, err := nfvmcast.SteinerKMB(g, []nfvmcast.NodeID{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Weight != 3 {
		t.Fatalf("steiner weight = %v, want 3", st.Weight)
	}
}

func TestPublicTopologies(t *testing.T) {
	for name, topo := range map[string]*nfvmcast.Topology{
		"GEANT":  nfvmcast.GEANT(),
		"AS1755": nfvmcast.AS1755(),
		"AS4755": nfvmcast.AS4755(),
	} {
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPublicErrorMatching(t *testing.T) {
	nw := buildNetwork(t, 11)
	// Saturate servers, then check the rejection matches ErrRejected.
	var servers []nfvmcast.ServerShare
	for _, v := range nw.Servers() {
		servers = append(servers, nfvmcast.ServerShare{Node: v, MHz: nw.ResidualCompute(v)})
	}
	if err := nw.Allocate(nfvmcast.Allocation{Servers: servers}); err != nil {
		t.Fatal(err)
	}
	planner, err := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	cp := nfvmcast.NewAdmitter(nw, planner)
	req := &nfvmcast.Request{
		ID: 1, Source: 0, Destinations: []nfvmcast.NodeID{5},
		BandwidthMbps: 100, Chain: nfvmcast.MustChain(nfvmcast.Proxy),
	}
	_, aerr := cp.Admit(context.Background(), req, nil)
	if !errors.Is(aerr, nfvmcast.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", aerr)
	}
	if !nfvmcast.IsRejection(aerr) {
		t.Fatal("IsRejection disagrees with errors.Is")
	}
}

func TestPublicVizAndBridges(t *testing.T) {
	topo := nfvmcast.GEANT()
	var buf strings.Builder
	if err := nfvmcast.WriteTopologyDOT(&buf, topo, []nfvmcast.NodeID{17}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GEANT") {
		t.Fatal("topology DOT missing name")
	}
	nw := buildNetwork(t, 14)
	req := &nfvmcast.Request{
		ID: 1, Source: 0, Destinations: []nfvmcast.NodeID{9},
		BandwidthMbps: 80, Chain: nfvmcast.MustChain(nfvmcast.IDS),
	}
	sol, err := nfvmcast.ApproMulti(nw, req, nfvmcast.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := nfvmcast.WriteTreeDOT(&buf, nw, nil, sol.Tree); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Fatal("tree DOT missing header")
	}
	// Bridges through the façade.
	line := nfvmcast.NewGraph(3)
	line.MustAddEdge(0, 1, 1)
	line.MustAddEdge(1, 2, 1)
	if got := nfvmcast.Bridges(line); len(got) != 2 {
		t.Fatalf("bridges = %v, want both edges", got)
	}
}
