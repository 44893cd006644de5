package core

// Unit tests for the package internals: the work-graph view, the
// closure evaluator, and the explicit auxiliary construction.

import (
	"math"
	"slices"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/nfv"
	"nfvmcast/internal/sdn"
)

func TestBuildWorkGraphFiltersResiduals(t *testing.T) {
	nw := testNetwork(t, 30, 4)
	req := testRequest(t, nw, 5)
	full := buildWorkGraph(nw.Graph(), nw, req, false, func(graph.EdgeID) float64 { return 1 })
	if out := outsideLinks(full); len(out) != 0 {
		t.Fatalf("uncapacitated view prices links %v outside", out)
	}
	if len(full.servers) != len(nw.Servers()) {
		t.Fatalf("uncapacitated view has %d servers, want %d",
			len(full.servers), len(nw.Servers()))
	}
	// Drain edge 0 and a server, then rebuild capacitated.
	if err := nw.Allocate(sdn.Allocation{
		Links: []sdn.LinkShare{{Edge: 0, Mbps: nw.ResidualBandwidth(0)}},
	}); err != nil {
		t.Fatal(err)
	}
	v := nw.Servers()[0]
	if err := nw.Allocate(sdn.Allocation{
		Servers: []sdn.ServerShare{{Node: v, MHz: nw.ResidualCompute(v)}},
	}); err != nil {
		t.Fatal(err)
	}
	capped := buildWorkGraph(nw.Graph(), nw, req, true, func(graph.EdgeID) float64 { return 1 })
	if out := outsideLinks(capped); len(out) != 1 || out[0] != 0 {
		t.Fatalf("capacitated view prices links %v outside, want [0]", out)
	}
	for _, s := range capped.servers {
		if s == v {
			t.Fatal("drained server still eligible")
		}
	}
	// Every link keeps its network edge ID and endpoints.
	if capped.g.NumEdges() != nw.NumEdges() {
		t.Fatalf("capacitated view has %d edges, want %d", capped.g.NumEdges(), nw.NumEdges())
	}
	for e := 0; e < nw.NumEdges(); e++ {
		a, b := capped.g.Edge(e), nw.Graph().Edge(e)
		if a.U != b.U || a.V != b.V {
			t.Fatalf("edge %d joins {%d,%d} in the view, {%d,%d} in the network", e, a.U, a.V, b.U, b.V)
		}
	}
}

// TestAuxiliaryZeroCostRuleSkipsExcludedLinks: the paper's zero-cost
// rule frees a direct source–server link in G_k^i, but not one the
// capacitated view prices at +Inf: that link stays out.
func TestAuxiliaryZeroCostRuleSkipsExcludedLinks(t *testing.T) {
	nw := testNetwork(t, 100, 7)
	req := testRequest(t, nw, 3).Clone()
	hg := nw.Graph()
	// A source with two server neighbours, outside the destinations.
	var subset []graph.NodeID
	var links []graph.EdgeID
	for u := 0; u < nw.NumNodes() && len(subset) < 2; u++ {
		subset, links = subset[:0], links[:0]
		if slices.Contains(req.Destinations, u) {
			continue
		}
		for _, v := range nw.Servers() {
			if id, ok := hg.EdgeBetween(u, v); ok && v != u && len(subset) < 2 {
				subset, links = append(subset, v), append(links, id)
			}
		}
		req.Source = u
	}
	if len(subset) < 2 {
		t.Fatal("no node with two server neighbours")
	}
	// The first link drops below b_k; the second stays in the view.
	if err := nw.Allocate(sdn.Allocation{Links: []sdn.LinkShare{
		{Edge: links[0], Mbps: nw.ResidualBandwidth(links[0]) - req.BandwidthMbps/2},
	}}); err != nil {
		t.Fatal(err)
	}
	w := buildWorkGraph(hg, nw, req, true, func(graph.EdgeID) float64 { return 1 })
	aux, _ := buildAuxiliary(w, req, subset, map[graph.NodeID]float64{subset[0]: 1, subset[1]: 1})
	if got := aux.Weight(links[0]); !math.IsInf(got, 1) {
		t.Fatalf("excluded link %d priced %v in G_k^i, want +Inf", links[0], got)
	}
	if got := aux.Weight(links[1]); got != 0 {
		t.Fatalf("member link %d priced %v in G_k^i, want 0", links[1], got)
	}
}

func TestClosureSteinerMatchesGenericKMBOnSingleton(t *testing.T) {
	// For a singleton subset, the closure evaluator's auxiliary tree
	// must weigh the same as generic KMB on the explicit auxiliary
	// graph without the zero-cost rule.
	nw := testNetwork(t, 25, 8)
	req := testRequest(t, nw, 9)
	w := buildWorkGraph(nw.Graph(), nw, req, false, func(e graph.EdgeID) float64 {
		return nw.LinkUnitCost(e) * req.BandwidthMbps
	})
	spSrc, err := graph.Dijkstra(w.g, req.Source)
	if err != nil {
		t.Fatal(err)
	}
	demand := req.ComputeDemandMHz()
	for _, v := range w.servers {
		if !spSrc.Reachable(v) {
			continue
		}
		spV, derr := graph.Dijkstra(w.g, v)
		if derr != nil {
			t.Fatal(derr)
		}
		omega := map[graph.NodeID]float64{
			v: spSrc.Dist[v] + nw.ServerUnitCost(v)*demand,
		}
		ev, eerr := newClosureEvaluator(w, req,
			map[graph.NodeID]*graph.ShortestPaths{v: spV}, nil, nil)
		if eerr != nil {
			t.Fatal(eerr)
		}
		scratch := new(evalScratch)
		ev.prepare(scratch)
		_, _, gotCost, serr := ev.steiner([]graph.NodeID{v}, omega, scratch)
		if serr != nil {
			t.Fatal(serr)
		}
		// Reference: explicit aux graph without the zero-cost rule.
		aux := w.g.Clone()
		virtual := aux.AddNode()
		aux.MustAddEdge(virtual, v, omega[v])
		terminals := append([]graph.NodeID{virtual}, req.Destinations...)
		ref, kerr := graph.SteinerKMB(aux, terminals)
		if kerr != nil {
			t.Fatal(kerr)
		}
		if math.Abs(gotCost-ref.Weight) > 1e-6 {
			t.Fatalf("server %d: closure cost %v != explicit KMB %v", v, gotCost, ref.Weight)
		}
	}
}

func TestDecomposeRejectsForeignDestination(t *testing.T) {
	// decompose must detect a destination outside every server
	// component (internal-consistency guard).
	nw := testNetwork(t, 20, 10)
	req := &multicast.Request{
		ID:            1,
		Source:        0,
		Destinations:  []graph.NodeID{1, 2},
		BandwidthMbps: 50,
		Chain:         nfv.MustChain(nfv.NAT),
	}
	w := buildWorkGraph(nw.Graph(), nw, req, false, func(graph.EdgeID) float64 { return 1 })
	spSrc, err := graph.Dijkstra(w.g, req.Source)
	if err != nil {
		t.Fatal(err)
	}
	v := nw.Servers()[0]
	if !spSrc.Reachable(v) {
		t.Skip("server unreachable in this fixture")
	}
	// Empty component: no real edges at all, so destinations cannot be
	// covered (unless they coincide with the server).
	if req.Destinations[0] == v || req.Destinations[1] == v {
		t.Skip("destination coincides with server in this fixture")
	}
	if _, err := decompose(w, req, spSrc, []graph.NodeID{v}, nil, new(evalScratch)); err == nil {
		t.Fatal("foreign destination accepted")
	}
}

func TestValidateInputErrors(t *testing.T) {
	nw := testNetwork(t, 20, 11)
	bad := &multicast.Request{ID: 1, Source: 99, Destinations: []graph.NodeID{1},
		BandwidthMbps: 10, Chain: nfv.MustChain(nfv.NAT)}
	if err := validateInput(nw, bad); err == nil {
		t.Fatal("bad source accepted")
	}
	good := testRequest(t, nw, 12)
	if err := validateInput(nw, good); err != nil {
		t.Fatal(err)
	}
}

func TestSolutionSelectionCostExposed(t *testing.T) {
	nw := testNetwork(t, 30, 13)
	req := testRequest(t, nw, 14)
	sol, err := ApproMulti(nw, req, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.SelectionCost <= 0 {
		t.Fatalf("selection cost %v", sol.SelectionCost)
	}
	// The implementation cost never exceeds the auxiliary objective of
	// the chosen candidate (shared source-path prefixes only help).
	if sol.OperationalCost > sol.SelectionCost+1e-6 {
		t.Fatalf("operational %v exceeds auxiliary %v",
			sol.OperationalCost, sol.SelectionCost)
	}
}
