package core

// Bit-identity oracle for the allocation path. sdn.Allocation used to
// be a pair of ID-keyed maps, PseudoTree.LinkLoads a map, and
// OperationalCost sorted the map's keys before summing. The references
// below keep that map-based code; the oracle demands the slice-based
// AllocationFor, OperationalCost, CanAllocate, Allocate and Release
// agree with it bit for bit — amounts, costs, residuals after each
// call, and which violation an over-allocation or over-release reports.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// refLinkLoads is the map form of PseudoTree.LinkLoads.
func refLinkLoads(tree *multicast.PseudoTree) map[graph.EdgeID]int {
	loads := make(map[graph.EdgeID]int)
	for _, h := range tree.Hops() {
		loads[h.Edge]++
	}
	return loads
}

// refAllocationFor is the map-based AllocationFor.
func refAllocationFor(req *multicast.Request, tree *multicast.PseudoTree) (map[graph.EdgeID]float64, map[graph.NodeID]float64) {
	links := make(map[graph.EdgeID]float64)
	for e, uses := range refLinkLoads(tree) {
		links[e] = float64(uses) * req.BandwidthMbps
	}
	servers := make(map[graph.NodeID]float64, len(tree.Servers))
	demand := req.ComputeDemandMHz()
	for i, v := range tree.Servers {
		if tree.ServerDemands != nil {
			servers[v] += tree.ServerDemands[i]
		} else {
			servers[v] = demand
		}
	}
	return links, servers
}

// refOperationalCost is the map-based OperationalCost: sorted keys,
// then the same sum.
func refOperationalCost(nw *sdn.Network, req *multicast.Request, tree *multicast.PseudoTree) float64 {
	loads := refLinkLoads(tree)
	edges := make([]graph.EdgeID, 0, len(loads))
	for e := range loads {
		edges = append(edges, e)
	}
	sort.Ints(edges)
	var cost float64
	for _, e := range edges {
		cost += float64(loads[e]) * req.BandwidthMbps * nw.LinkUnitCost(e)
	}
	demand := req.ComputeDemandMHz()
	for i, v := range tree.Servers {
		d := demand
		if tree.ServerDemands != nil {
			d = tree.ServerDemands[i]
		}
		cost += d * nw.ServerUnitCost(v)
	}
	return cost
}

func sortedKeys[K ~int, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// refCanAllocate is the map-based CanAllocate: the first violation in
// ascending link, then server, order.
func refCanAllocate(nw *sdn.Network, links map[graph.EdgeID]float64, servers map[graph.NodeID]float64) error {
	for _, e := range sortedKeys(links) {
		need := links[e]
		if e < 0 || e >= nw.NumEdges() {
			return fmt.Errorf("sdn: edge %d out of range (m=%d)", e, nw.NumEdges())
		}
		if need < 0 {
			return fmt.Errorf("sdn: negative bandwidth %v on edge %d", need, e)
		}
		if !nw.LinkUp(e) {
			return fmt.Errorf("%w: %d", sdn.ErrLinkDown, e)
		}
		if free := nw.ResidualBandwidth(e); need > free {
			return &sdn.InsufficientBandwidthError{Edge: e, Need: need, Residual: free}
		}
	}
	for _, v := range sortedKeys(servers) {
		need := servers[v]
		if !nw.IsServer(v) {
			return &sdn.NotServerError{Node: v}
		}
		if need < 0 {
			return fmt.Errorf("sdn: negative computing %v on server %d", need, v)
		}
		if !nw.ServerUp(v) {
			return fmt.Errorf("%w: %d", sdn.ErrServerDown, v)
		}
		if free := nw.ResidualCompute(v); need > free {
			return &sdn.InsufficientComputeError{Node: v, Need: need, Residual: free}
		}
	}
	return nil
}

// refReleaseCheck is the map-based Release's validation pass.
func refReleaseCheck(nw *sdn.Network, links map[graph.EdgeID]float64, servers map[graph.NodeID]float64) error {
	for _, e := range sortedKeys(links) {
		amt := links[e]
		if e < 0 || e >= nw.NumEdges() {
			return fmt.Errorf("sdn: edge %d out of range (m=%d)", e, nw.NumEdges())
		}
		if free, capMbps := nw.ResidualBandwidth(e), nw.BandwidthCap(e); amt < 0 || free+amt > capMbps+1e-6 {
			return fmt.Errorf("sdn: release of %v Mbps overflows link %d (free %v, cap %v)", amt, e, free, capMbps)
		}
	}
	for _, v := range sortedKeys(servers) {
		amt := servers[v]
		if !nw.IsServer(v) {
			return &sdn.NotServerError{Node: v}
		}
		if free, capMHz := nw.ResidualCompute(v), nw.ComputeCap(v); amt < 0 || free+amt > capMHz+1e-6 {
			return fmt.Errorf("sdn: release of %v MHz overflows server %d (free %v, cap %v)", amt, v, free, capMHz)
		}
	}
	return nil
}

// refApply charges (sign -1) or returns (sign +1) the map bundle one
// resource at a time, in map order. Each resource's residual sees
// exactly the one float operation the map-based Allocate/Release
// applied to it, so the bits match whatever the iteration order.
func refApply(t *testing.T, nw *sdn.Network, links map[graph.EdgeID]float64, servers map[graph.NodeID]float64, sign int) {
	t.Helper()
	op := nw.Allocate
	if sign > 0 {
		op = nw.Release
	}
	for e, amt := range links {
		if err := op(sdn.Allocation{Links: []sdn.LinkShare{{Edge: e, Mbps: amt}}}); err != nil {
			t.Fatalf("reference link %d: %v", e, err)
		}
	}
	for v, amt := range servers {
		if err := op(sdn.Allocation{Servers: []sdn.ServerShare{{Node: v, MHz: amt}}}); err != nil {
			t.Fatalf("reference server %d: %v", v, err)
		}
	}
}

// sameResidualBits fails unless a and b hold bit-identical residuals.
func sameResidualBits(t *testing.T, what string, a, b *sdn.Network) {
	t.Helper()
	for e := 0; e < a.NumEdges(); e++ {
		if x, y := a.ResidualBandwidth(e), b.ResidualBandwidth(e); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: link %d residual %v, reference %v", what, e, x, y)
		}
	}
	for _, v := range a.Servers() {
		if x, y := a.ResidualCompute(v), b.ResidualCompute(v); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: server %d residual %v, reference %v", what, v, x, y)
		}
	}
}

// sameError fails unless both errors are nil or render identically.
func sameError(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
}

// checkAllocationPath compares every slice-based step for (req, tree)
// against the map references on clones of nw, and reports which calls
// were refused (and so compared their reported violation).
func checkAllocationPath(t *testing.T, nw *sdn.Network, req *multicast.Request, tree *multicast.PseudoTree) (allocRefused, releaseRefused bool) {
	t.Helper()
	got := AllocationFor(req, tree)
	refLinks, refSrvs := refAllocationFor(req, tree)
	if len(got.Links) != len(refLinks) || len(got.Servers) != len(refSrvs) {
		t.Fatalf("req %d: %d links / %d servers, reference %d / %d",
			req.ID, len(got.Links), len(got.Servers), len(refLinks), len(refSrvs))
	}
	for i, l := range got.Links {
		if i > 0 && l.Edge <= got.Links[i-1].Edge {
			t.Fatalf("req %d: links not strictly ascending at %d", req.ID, i)
		}
		if want, ok := refLinks[l.Edge]; !ok || math.Float64bits(l.Mbps) != math.Float64bits(want) {
			t.Fatalf("req %d: link %d carries %v, reference %v", req.ID, l.Edge, l.Mbps, want)
		}
	}
	for i, s := range got.Servers {
		if i > 0 && s.Node <= got.Servers[i-1].Node {
			t.Fatalf("req %d: servers not strictly ascending at %d", req.ID, i)
		}
		if want, ok := refSrvs[s.Node]; !ok || math.Float64bits(s.MHz) != math.Float64bits(want) {
			t.Fatalf("req %d: server %d carries %v, reference %v", req.ID, s.Node, s.MHz, want)
		}
	}
	if c, want := OperationalCost(nw, req, tree), refOperationalCost(nw, req, tree); math.Float64bits(c) != math.Float64bits(want) {
		t.Fatalf("req %d: OperationalCost %v, reference %v", req.ID, c, want)
	}

	a, b := nw.Clone(), nw.Clone()
	err := a.Allocate(got)
	sameError(t, "Allocate", err, refCanAllocate(b, refLinks, refSrvs))
	allocRefused = err != nil
	if err == nil {
		refApply(t, b, refLinks, refSrvs, -1)
		sameResidualBits(t, "Allocate", a, b)
		if err := a.Release(got); err != nil {
			t.Fatalf("req %d: Release after Allocate: %v", req.ID, err)
		}
		refApply(t, b, refLinks, refSrvs, +1)
		sameResidualBits(t, "Release", a, b)
	}
	// Release on top: the committed bundle comes back once; a second
	// release overflows some links and not others, so the reported
	// violation exercises the order.
	for round := 0; round < 2; round++ {
		err := a.Release(got)
		sameError(t, fmt.Sprintf("Release round %d", round), err, refReleaseCheck(b, refLinks, refSrvs))
		if err != nil {
			return allocRefused, true
		}
		refApply(t, b, refLinks, refSrvs, +1)
		sameResidualBits(t, "Release", a, b)
	}
	return allocRefused, false
}

// withRepeatedServer copies tree with its first serving node listed a
// second time, carrying an extra segment: the shape whose demands the
// map reference summed per node.
func withRepeatedServer(tree *multicast.PseudoTree) *multicast.PseudoTree {
	servers := append(slices.Clone(tree.Servers), tree.Servers[0])
	out := multicast.NewPseudoTree(tree.Source, tree.Destinations, servers)
	out.ServerDemands = append(slices.Clone(tree.ServerDemands), 0.37*tree.ServerDemands[0])
	for _, h := range tree.Hops() {
		out.AddHop(h)
	}
	return out
}

// TestAllocationPathMatchesMapReference drives every registered planner
// on GÉANT and Waxman-60, departing the oldest session after every
// third arrival, and checks each admitted tree against the references.
func TestAllocationPathMatchesMapReference(t *testing.T) {
	substrates := map[string]func(t *testing.T) *sdn.Network{
		"geant": func(t *testing.T) *sdn.Network {
			nw, err := sdn.NewNetwork(topology.GEANT(), sdn.DefaultConfig(), rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			return nw
		},
		"waxman60": func(t *testing.T) *sdn.Network { return testNetwork(t, 60, 5) },
	}
	var backtracked, repeated, trees, allocRefused, releaseRefused int
	check := func(nw *sdn.Network, req *multicast.Request, tree *multicast.PseudoTree) {
		a, r := checkAllocationPath(t, nw, req, tree)
		if a {
			allocRefused++
		}
		if r {
			releaseRefused++
		}
	}
	for _, spec := range Planners() {
		for _, name := range sortedNames(substrates) {
			nw := substrates[name](t)
			p, err := NewPlanner(spec.Name, PlannerOptions{Nodes: nw.NumNodes()})
			if err != nil {
				t.Fatal(err)
			}
			adm := NewAdmitter(nw, p)
			gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 21)
			if err != nil {
				t.Fatal(err)
			}
			var live []int
			for i := 0; i < 60; i++ {
				req, err := gen.Next()
				if err != nil {
					t.Fatal(err)
				}
				sol, err := adm.Admit(context.Background(), req, nil)
				if IsRejection(err) {
					continue
				}
				if err != nil {
					t.Fatalf("%s/%s: request %d: %v", spec.Name, name, req.ID, err)
				}
				live = append(live, req.ID)
				trees++
				check(nw, req, sol.Tree)
				if slices.ContainsFunc(sol.Tree.LinkLoads(), func(l multicast.EdgeLoad) bool { return l.Uses >= 2 }) {
					backtracked++
				}
				if sol.Tree.ServerDemands != nil {
					check(nw, req, withRepeatedServer(sol.Tree))
					repeated++
				}
				if i%3 == 2 {
					if _, err := adm.Depart(live[0]); err != nil {
						t.Fatal(err)
					}
					live = live[1:]
				}
			}
		}
	}
	t.Logf("%d trees: %d with a link load >= 2, %d repeated-server variants; %d allocations and %d releases refused",
		trees, backtracked, repeated, allocRefused, releaseRefused)
	if backtracked == 0 || repeated == 0 || allocRefused == 0 || releaseRefused == 0 {
		t.Fatal("oracle did not cover every shape and refusal")
	}
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// allocationOf turns ID-keyed amounts into an sdn.Allocation: the map
// shape tests find convenient to fill, in the sorted form sdn requires.
func allocationOf(links map[graph.EdgeID]float64, servers map[graph.NodeID]float64) sdn.Allocation {
	var a sdn.Allocation
	for _, e := range sortedKeys(links) {
		a.Links = append(a.Links, sdn.LinkShare{Edge: e, Mbps: links[e]})
	}
	for _, v := range sortedKeys(servers) {
		a.Servers = append(a.Servers, sdn.ServerShare{Node: v, MHz: servers[v]})
	}
	return a
}

// loadOn returns e's traversal count in loads, or 0.
func loadOn(loads []multicast.EdgeLoad, e graph.EdgeID) int {
	if i, ok := slices.BinarySearchFunc(loads, e, func(l multicast.EdgeLoad, e graph.EdgeID) int { return l.Edge - e }); ok {
		return loads[i].Uses
	}
	return 0
}

// linkMbps returns e's bandwidth in a, and whether a charges e at all.
func linkMbps(a sdn.Allocation, e graph.EdgeID) (float64, bool) {
	if i, ok := slices.BinarySearchFunc(a.Links, e, func(l sdn.LinkShare, e graph.EdgeID) int { return l.Edge - e }); ok {
		return a.Links[i].Mbps, true
	}
	return 0, false
}
