package core

// Empirical verification of the paper's approximation guarantees on
// small instances, using the exact Dreyfus–Wagner Steiner solver as
// the optimum oracle.

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/nfv"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// smallInstance builds a network small enough for exact optima: n
// switches, exactly 3 servers, and a request with at most 4
// destinations.
func smallInstance(seed int64) (*sdn.Network, *multicast.Request, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 12 + rng.Intn(10)
	topo, err := topology.WaxmanDegree(n, 3, 0.2, seed)
	if err != nil {
		return nil, nil, err
	}
	topo.Servers = 3
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rng)
	if err != nil {
		return nil, nil, err
	}
	perm := rng.Perm(n)
	nd := 1 + rng.Intn(4)
	dests := make([]graph.NodeID, nd)
	copy(dests, perm[1:1+nd])
	chain, err := nfv.RandomChain(rng, 1, 3)
	if err != nil {
		return nil, nil, err
	}
	req := &multicast.Request{
		ID:            1,
		Source:        perm[0],
		Destinations:  dests,
		BandwidthMbps: 50 + rng.Float64()*150,
		Chain:         chain,
	}
	return nw, req, nil
}

// exactAuxOptimum computes, by exhaustive subset enumeration plus the
// exact Steiner solver on the explicit auxiliary graph, the minimum
// auxiliary tree cost min_i c(T_k^{OPT,i}) over all server subsets of
// size <= k.
func exactAuxOptimum(nw *sdn.Network, req *multicast.Request, k int) (float64, bool) {
	w := buildWorkGraph(nw.Graph(), nw, req, false, func(e graph.EdgeID) float64 {
		return nw.LinkUnitCost(e) * req.BandwidthMbps
	})
	spSrc, err := graph.Dijkstra(w.g, req.Source)
	if err != nil {
		return 0, false
	}
	demand := req.ComputeDemandMHz()
	omega := make(map[graph.NodeID]float64)
	var servers []graph.NodeID
	for _, v := range w.servers {
		if spSrc.Reachable(v) {
			omega[v] = spSrc.Dist[v] + nw.ServerUnitCost(v)*demand
			servers = append(servers, v)
		}
	}
	if len(servers) == 0 {
		return 0, false
	}
	best := graph.Infinity
	found := false
	forEachSubset(servers, k, func(subset []graph.NodeID) bool {
		// Build the auxiliary graph WITHOUT the zero-cost source-edge
		// rule: the oracle must price edges exactly as the closure
		// evaluator under test does (the rule is a paper-literal
		// optimisation the default evaluator documents as omitted;
		// with it the optimum can drop below the evaluator's own
		// formulation and the 2x check would compare apples to
		// oranges).
		aux := w.g.Clone()
		virtualNode := aux.AddNode()
		for _, v := range subset {
			aux.MustAddEdge(virtualNode, v, omega[v])
		}
		terminals := append([]graph.NodeID{virtualNode}, req.Destinations...)
		opt, err := graph.SteinerExactWeight(aux, terminals)
		if err == nil && opt < best {
			best, found = opt, true
		}
		return true
	})
	return best, found
}

// TestPropertyApproMultiWithinBound verifies the chain of guarantees
// behind Theorem 1 on random small instances: the implementation cost
// of the returned pseudo-multicast tree is at most twice the exact
// optimal auxiliary tree cost over all subsets (which in turn is at
// most K times the optimal pseudo-multicast tree cost, giving the
// paper's 2K ratio).
func TestPropertyApproMultiWithinBound(t *testing.T) {
	const k = 2
	f := func(seed int64) bool {
		nw, req, err := smallInstance(seed)
		if err != nil {
			return false
		}
		opt, ok := exactAuxOptimum(nw, req, k)
		if !ok {
			return false
		}
		sol, err := ApproMulti(nw, req, Options{K: k})
		if err != nil {
			return false
		}
		// Operational cost <= selected candidate's auxiliary cost
		// <= 2 * exact auxiliary optimum.
		return sol.OperationalCost <= 2*opt+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestApproMultiMatchesExactOnEasyInstance pins the behaviour on a
// hand-built instance where the optimum is obvious: a path
// source - server - destination must cost the two links plus the VM.
func TestApproMultiMatchesExactOnEasyInstance(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	topo := &topology.Topology{Name: "path3", Graph: g, Servers: 1}
	rng := rand.New(rand.NewSource(4))
	nw, err := sdn.NewNetworkWithServers(topo, sdn.DefaultConfig(), []graph.NodeID{1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := &multicast.Request{
		ID:            1,
		Source:        0,
		Destinations:  []graph.NodeID{2},
		BandwidthMbps: 100,
		Chain:         nfv.MustChain(nfv.Firewall),
	}
	sol, err := ApproMulti(nw, req, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := req.BandwidthMbps*(nw.LinkUnitCost(0)+nw.LinkUnitCost(1)) +
		req.ComputeDemandMHz()*nw.ServerUnitCost(1)
	if math.Abs(sol.OperationalCost-want) > 1e-9 {
		t.Fatalf("cost = %v, want exact optimum %v", sol.OperationalCost, want)
	}
}

// TestPropertyOnlineCPWithinFourTimesOptimal verifies inequality (3)
// of the paper's §V.B: the realised pseudo-multicast tree's
// normalised weight (plus the server weight) is within 4x of the
// optimal Steiner tree through the chosen server under the same link
// weights, even on a partially loaded network.
func TestPropertyOnlineCPWithinFourTimesOptimal(t *testing.T) {
	f := func(seed int64) bool {
		nw, req, err := smallInstance(seed)
		if err != nil {
			return false
		}
		// Pre-load the network with a few admissions so weights are
		// non-trivial.
		model := DefaultCostModel(nw.NumNodes())
		cp, err := newCPAdmitter(nw, model)
		if err != nil {
			return false
		}
		gen, err := multicast.NewGenerator(nw.NumNodes(),
			multicast.OnlineGeneratorConfig(), seed+3)
		if err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			r, gerr := gen.Next()
			if gerr != nil {
				return false
			}
			_, _ = cp.Admit(context.Background(), r, nil)
		}
		sol, err := cp.Planner().Plan(context.Background(), nw, req, nil)
		if err != nil {
			return true // rejection is allowed; nothing to verify
		}
		v := sol.Servers[0]
		// Rebuild the marginal-weight graph plan() used.
		w := buildWorkGraph(nw.Graph(), nw, req, true, func(e graph.EdgeID) float64 {
			utilAfter := 1 - (nw.ResidualBandwidth(e)-req.BandwidthMbps)/nw.BandwidthCap(e)
			return math.Pow(model.Beta, utilAfter) - 1
		})
		terminals := append([]graph.NodeID{req.Source, v}, req.Destinations...)
		opt, oerr := graph.SteinerExactWeight(w.g, terminals)
		if oerr != nil {
			return true // residual graph may disconnect the oracle
		}
		// Weight of the realised tree under the same metric, counting
		// each directed traversal (back-tracked links count twice).
		hostWeight := make(map[graph.EdgeID]float64, w.g.NumEdges())
		for le := 0; le < w.g.NumEdges(); le++ {
			hostWeight[le] = w.g.Weight(le)
		}
		var treeWeight float64
		for _, l := range sol.Tree.LinkLoads() {
			treeWeight += float64(l.Uses) * hostWeight[l.Edge]
		}
		wv := model.ServerWeight(nw, v)
		return treeWeight+wv <= 4*(opt+wv)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
