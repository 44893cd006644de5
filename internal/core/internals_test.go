package core

// Unit tests for the package internals: the work-graph view, the
// closure evaluator, and the explicit auxiliary construction.

import (
	"math"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/nfv"
	"nfvmcast/internal/sdn"
)

func TestBuildWorkGraphFiltersResiduals(t *testing.T) {
	nw := testNetwork(t, 30, 4)
	req := testRequest(t, nw, 5)
	full := buildWorkGraph(nw, req, false, func(graph.EdgeID) float64 { return 1 })
	if full.g.NumEdges() != nw.NumEdges() {
		t.Fatalf("uncapacitated view has %d edges, want %d", full.g.NumEdges(), nw.NumEdges())
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
	capped := buildWorkGraph(nw, req, true, func(graph.EdgeID) float64 { return 1 })
	if capped.g.NumEdges() != nw.NumEdges()-1 {
		t.Fatalf("capacitated view has %d edges, want %d", capped.g.NumEdges(), nw.NumEdges()-1)
	}
	for _, s := range capped.servers {
		if s == v {
			t.Fatal("drained server still eligible")
		}
	}
	// hostEdge mapping must skip the drained edge consistently.
	for le := 0; le < capped.g.NumEdges(); le++ {
		he := capped.hostEdge(le)
		if he == 0 {
			t.Fatal("drained edge appears in mapping")
		}
		a := capped.g.Edge(le)
		b := nw.Graph().Edge(he)
		if a.U != b.U || a.V != b.V {
			t.Fatalf("edge mapping mismatch: local %d {%d,%d} vs host %d {%d,%d}",
				le, a.U, a.V, he, b.U, b.V)
		}
	}
}

func TestWorkGraphAddHostPathTranslates(t *testing.T) {
	nw := testNetwork(t, 20, 6)
	req := testRequest(t, nw, 7)
	w := buildWorkGraph(nw, req, false, func(graph.EdgeID) float64 { return 1 })
	sp, err := graph.Dijkstra(w.g, req.Source)
	if err != nil {
		t.Fatal(err)
	}
	d := req.Destinations[0]
	nodes, edges, ok := sp.PathTo(d)
	if !ok {
		t.Fatal("destination unreachable in connected network")
	}
	tree := multicast.NewPseudoTree(req.Source, req.Destinations, []graph.NodeID{d})
	if err := w.addHostPath(tree, nodes, edges, false); err != nil {
		t.Fatal(err)
	}
	// Every stored hop must reference a genuine host edge joining its
	// endpoints.
	for _, h := range tree.Hops() {
		he := nw.Graph().Edge(h.Edge)
		if !((he.U == h.From && he.V == h.To) || (he.V == h.From && he.U == h.To)) {
			t.Fatalf("hop %+v does not match host edge {%d,%d}", h, he.U, he.V)
		}
	}
}

func TestClosureSteinerMatchesGenericKMBOnSingleton(t *testing.T) {
	// For a singleton subset, the closure evaluator's auxiliary tree
	// must weigh the same as generic KMB on the explicit auxiliary
	// graph without the zero-cost rule.
	nw := testNetwork(t, 25, 8)
	req := testRequest(t, nw, 9)
	w := buildWorkGraph(nw, req, false, func(e graph.EdgeID) float64 {
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
	w := buildWorkGraph(nw, req, false, func(graph.EdgeID) float64 { return 1 })
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
