package core

// Oracles for the closure evaluator's two exact cuts: Prim over the
// reduced closure (virtual edges plus M_D) instead of the full metric
// closure, and refine's skip of Kruskal when the expansion union is
// already a forest. Each is checked against the computation it
// replaces, run beside it on the same candidate.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// closureEdge is one closure MST edge by endpoints (low first) and
// weight bits.
type closureEdge struct {
	u, v int
	w    uint64
}

// closureEdges lists the edges of mst, which indexes g, sorted.
func closureEdges(g *graph.Graph, mst *graph.MST) []closureEdge {
	out := make([]closureEdge, 0, len(mst.EdgeIDs))
	for _, id := range mst.EdgeIDs {
		e := g.Edge(id)
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out = append(out, closureEdge{e.U, e.V, math.Float64bits(e.W)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].u != out[j].u {
			return out[i].u < out[j].u
		}
		return out[i].v < out[j].v
	})
	return out
}

// fullClosurePrim rebuilds the candidate's full metric closure from
// scratch — the virtual-edge weights the evaluator just set, then every
// destination pair in the order prepare has always used — and runs Prim
// on it.
func fullClosurePrim(ev *closureEvaluator, s *evalScratch) (*graph.Graph, *graph.MST, error) {
	dests := ev.req.Destinations
	m := len(dests)
	g := graph.New(m + 1)
	for j := 0; j < m; j++ {
		g.MustAddEdge(0, j+1, s.reduced.Weight(j))
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if d := ev.spDst[i].Dist[dests[j]]; d < graph.Infinity {
				g.MustAddEdge(i+1, j+1, d)
			}
		}
	}
	mst, err := graph.PrimMST(g)
	return g, mst, err
}

// closureNets is the oracle grid in both pricings: sweepGrid's degraded
// substrates with continuous costs, and the same four topologies with
// every cost collapsed to one value.
func closureNets(t *testing.T) map[string]*sdn.Network {
	t.Helper()
	nets := make(map[string]*sdn.Network)
	for name, nw := range sweepGrid(t) {
		nets["continuous/"+name] = nw
	}
	for _, name := range []string{"geant", "fattree", "waxman100", "waxman150"} {
		nets["ties/"+name] = tieNetwork(t, name)
	}
	return nets
}

// TestReducedClosureMatchesFullClosure is the reduced-closure oracle:
// for every candidate of the grid (K = 3, dominated subsets included),
// the closure MST closureMST or rootedMST settles on has the endpoints
// and weight bits of Prim on a freshly built full closure. It also
// demands that both branches live: the reduced tree on at least 90% of
// the continuous-cost subset candidates, the full-closure fallback at
// least once under ties.
func TestReducedClosureMatchesFullClosure(t *testing.T) {
	disableSubsetPruning = true
	defer func() { disableSubsetPruning = false }()
	type tally struct{ subsets, subsetsReduced, rooted, rootedReduced int }
	counts := map[string]*tally{"continuous": {}, "ties": {}}
	nets := closureNets(t)
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nw := nets[name]
		pricing, _, _ := strings.Cut(name, "/")
		c := counts[pricing]
		for _, capacitated := range []bool{false, true} {
			for reqSeed := int64(0); reqSeed < 6; reqSeed++ {
				var req *multicast.Request
				if pricing == "ties" {
					req = tieRequests(t, nw, 2000+reqSeed, 1)[0]
				} else {
					req = testRequest(t, nw, 2000+reqSeed)
				}
				fx := newSweepFixture(t, nw, req, capacitated, 3)
				if fx == nil {
					continue
				}
				var s evalScratch
				fx.ev.prepare(&s)
				for idx, cand := range fx.cands {
					var err error
					if cand.rooted {
						err = fx.ev.rootedMST(cand.servers[0], &s)
					} else {
						err = fx.ev.closureMST(cand.servers, fx.omega, &s)
					}
					if errors.Is(err, ErrUnreachable) {
						continue // no closure tree: a destination is cut off from the candidate
					}
					label := fmt.Sprintf("%s/cap=%v/req=%d cand %d %v rooted=%v", name, capacitated, reqSeed, idx, cand.servers, cand.rooted)
					full, want, werr := fullClosurePrim(fx.ev, &s)
					if (err == nil) != (werr == nil) {
						t.Fatalf("%s: evaluator err %v, full-closure Prim err %v", label, err, werr)
					}
					if err != nil {
						continue
					}
					reduced := s.tree == &s.reduced
					if cand.rooted {
						c.rooted++
						if reduced {
							c.rootedReduced++
						}
					} else {
						c.subsets++
						if reduced {
							c.subsetsReduced++
						}
					}
					got := closureEdges(s.tree, &s.closureMST)
					if exp := closureEdges(full, want); fmt.Sprint(got) != fmt.Sprint(exp) {
						t.Fatalf("%s (reduced=%v): tree %v, full closure %v", label, reduced, got, exp)
					}
					if math.Float64bits(s.closureMST.Weight) != math.Float64bits(want.Weight) {
						t.Fatalf("%s (reduced=%v): weight %v, full closure %v", label, reduced, s.closureMST.Weight, want.Weight)
					}
				}
			}
		}
	}
	for _, pricing := range []string{"continuous", "ties"} {
		c := counts[pricing]
		t.Logf("%s: reduced tree on %d/%d subset and %d/%d rooted candidates",
			pricing, c.subsetsReduced, c.subsets, c.rootedReduced, c.rooted)
	}
	if c := counts["continuous"]; c.subsets == 0 || float64(c.subsetsReduced) < 0.9*float64(c.subsets) {
		t.Fatalf("reduced closure used on %d/%d continuous-cost subset candidates, want >= 90%%", c.subsetsReduced, c.subsets)
	}
	if c := counts["ties"]; c.subsetsReduced+c.rootedReduced == c.subsets+c.rooted {
		t.Fatal("full-closure fallback never fired on the tie grid")
	}
}

// kruskalThenPrune is refine's reference: the pruning graph refine
// builds (sorted union edges, then sorted virtual edges), its Kruskal
// forest, and leaf pruning by repeated scans until no non-terminal
// leaf is left; survivors in ascending pruning-edge order.
func kruskalThenPrune(
	ev *closureEvaluator, union []graph.EdgeID, virt []graph.NodeID, omega map[graph.NodeID]float64,
	extraTerminals ...graph.NodeID,
) (servers []graph.NodeID, realEdges []graph.EdgeID, cost float64) {
	n := ev.w.g.NumNodes()
	union = append([]graph.EdgeID(nil), union...)
	virt = append([]graph.NodeID(nil), virt...)
	sort.Ints(union)
	sort.Ints(virt)
	tg := graph.New(n + 1)
	for _, e := range union {
		he := ev.w.g.Edge(e)
		tg.MustAddEdge(he.U, he.V, he.W)
	}
	for _, v := range virt {
		tg.MustAddEdge(n, v, omega[v])
	}
	var ws graph.MSTWorkspace
	var forest graph.MST
	_ = ws.Kruskal(tg, &forest) // a forest is expected: ErrDisconnected is benign
	alive := make([]bool, tg.NumEdges())
	for _, id := range forest.EdgeIDs {
		alive[id] = true
	}
	isTerm := make([]bool, n+1)
	isTerm[n] = len(virt) > 0
	for _, d := range ev.req.Destinations {
		isTerm[d] = true
	}
	for _, v := range extraTerminals {
		isTerm[v] = true
	}
	for pruned := true; pruned; {
		pruned = false
		deg := make([]int, n+1)
		for id, ok := range alive {
			if ok {
				e := tg.Edge(id)
				deg[e.U]++
				deg[e.V]++
			}
		}
		for id, ok := range alive {
			if !ok {
				continue
			}
			if e := tg.Edge(id); (deg[e.U] == 1 && !isTerm[e.U]) || (deg[e.V] == 1 && !isTerm[e.V]) {
				alive[id], pruned = false, true
			}
		}
	}
	for id, ok := range alive {
		if !ok {
			continue
		}
		cost += tg.Weight(id)
		if id >= len(union) {
			servers = append(servers, virt[id-len(union)])
		} else {
			realEdges = append(realEdges, union[id])
		}
	}
	return servers, realEdges, cost
}

// refineMatches runs refine on copies of (union, virt) and compares its
// servers, real edges and cost bits with kruskalThenPrune.
func refineMatches(t *testing.T, label string, ev *closureEvaluator, s *evalScratch,
	union []graph.EdgeID, virt []graph.NodeID, omega map[graph.NodeID]float64, extra ...graph.NodeID,
) {
	t.Helper()
	wantSrv, wantEdges, wantCost := kruskalThenPrune(ev, union, virt, omega, extra...)
	gotSrv, gotEdges, gotCost, err := ev.refine(
		append([]graph.EdgeID(nil), union...), append([]graph.NodeID(nil), virt...), omega, s, extra...)
	if err != nil {
		t.Fatalf("%s: refine: %v", label, err)
	}
	if fmt.Sprint(gotSrv) != fmt.Sprint(wantSrv) || fmt.Sprint(gotEdges) != fmt.Sprint(wantEdges) ||
		math.Float64bits(gotCost) != math.Float64bits(wantCost) {
		t.Fatalf("%s: refine = (%v, %v, %v), Kruskal then prune = (%v, %v, %v)",
			label, gotSrv, gotEdges, gotCost, wantSrv, wantEdges, wantCost)
	}
}

// isForest reports whether the pruning graph of (union, virt) is
// acyclic.
func isForest(ev *closureEvaluator, union []graph.EdgeID, virt []graph.NodeID) bool {
	n := ev.w.g.NumNodes()
	dsu := graph.NewDisjointSet(n + 1)
	for _, e := range union {
		if he := ev.w.g.Edge(e); !dsu.Union(he.U, he.V) {
			return false
		}
	}
	for _, v := range virt {
		if !dsu.Union(n, v) {
			return false
		}
	}
	return true
}

// TestRefineCyclicUnionMatchesKruskal covers the branch the benchmark
// workload never takes: a union with a cycle, here a square with a
// pendant path, in the virtual-source and the rooted form, with
// distinct and with tied weights.
func TestRefineCyclicUnionMatchesKruskal(t *testing.T) {
	for _, tied := range []bool{false, true} {
		g := graph.New(6)
		w := func(x float64) float64 {
			if tied {
				return 1
			}
			return x
		}
		g.MustAddEdge(0, 1, w(1))
		g.MustAddEdge(1, 2, w(2))
		g.MustAddEdge(2, 3, w(3))
		g.MustAddEdge(3, 0, w(4))
		g.MustAddEdge(2, 4, w(1))
		g.MustAddEdge(4, 5, w(1))
		ev := &closureEvaluator{
			w:   &workGraph{g: g},
			req: &multicast.Request{Destinations: []graph.NodeID{1, 3}},
		}
		union := []graph.EdgeID{5, 3, 0, 4, 2, 1}
		omega := map[graph.NodeID]float64{0: 5}
		if isForest(ev, union, nil) {
			t.Fatal("fixture union is acyclic")
		}
		var s evalScratch
		refineMatches(t, fmt.Sprintf("virtual source, tied=%v", tied), ev, &s, union, []graph.NodeID{0}, omega)
		refineMatches(t, fmt.Sprintf("rooted at 0, tied=%v", tied), ev, &s, union, nil, nil, 0)
		if tied {
			continue
		}
		// With distinct weights the answer is known: Kruskal drops 3–0,
		// the pendant 2–4–5 is pruned, and the server reaches 1 and 3
		// over 0–1–2–3.
		servers, edges, cost, err := ev.refine(union, []graph.NodeID{0}, omega, &s)
		if err != nil || fmt.Sprint(servers) != "[0]" || fmt.Sprint(edges) != "[0 1 2]" || cost != 11 {
			t.Fatalf("refine = (%v, %v, %v, %v), want ([0], [0 1 2], 11, nil)", servers, edges, cost, err)
		}
	}
}

// TestRefineMatchesKruskalOnGrid runs refine against Kruskal-then-prune
// for every candidate of the TestScratchPriceMatchesBuiltTree grid,
// dominated subsets included, and reports how many unions were acyclic.
func TestRefineMatchesKruskalOnGrid(t *testing.T) {
	disableSubsetPruning = true
	defer func() { disableSubsetPruning = false }()
	var acyclic, cyclic int
	forEachFixture(t, func(label string, fx *sweepFixture) {
		var s evalScratch
		fx.ev.prepare(&s)
		for idx, c := range fx.cands {
			var err error
			if c.rooted {
				err = fx.ev.rootedMST(c.servers[0], &s)
			} else {
				err = fx.ev.closureMST(c.servers, fx.omega, &s)
			}
			if err != nil {
				continue
			}
			union, virt, err := fx.ev.expand(&s)
			if err != nil {
				t.Fatalf("%s cand %d: expand: %v", label, idx, err)
			}
			union = append([]graph.EdgeID(nil), union...)
			virt = append([]graph.NodeID(nil), virt...)
			candLabel := fmt.Sprintf("%s cand %d %v", label, idx, c.servers)
			if c.rooted {
				// steinerRooted anchors the tree at the root, not the
				// virtual source.
				virt = nil
				refineMatches(t, candLabel, fx.ev, &s, union, nil, nil, c.servers[0])
			} else {
				refineMatches(t, candLabel, fx.ev, &s, union, virt, fx.omega)
			}
			if isForest(fx.ev, union, virt) {
				acyclic++
			} else {
				cyclic++
			}
		}
	})
	t.Logf("%d acyclic and %d cyclic unions", acyclic, cyclic)
	if acyclic == 0 {
		t.Fatal("no acyclic union on the grid")
	}
}

// TestReducedClosureMatchesFullClosureSmallIntegers drives the same
// oracle through hand-built evaluators on small random graphs with
// integer weights, where M_D is often unique but candidate closures
// tie: the case in which only the candidate's own uniqueness check
// keeps the reduced tree from differing from the full closure's.
func TestReducedClosureMatchesFullClosureSmallIntegers(t *testing.T) {
	disableSubsetPruning = true
	defer func() { disableSubsetPruning = false }()
	var reduced, fallback int
	for seed := int64(0); seed < 4000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(30)
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.MustAddEdge(rng.Intn(v), v, float64(1+rng.Intn(8)))
		}
		for extra := rng.Intn(n); extra > 0; extra-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.MustAddEdge(u, v, float64(1+rng.Intn(8)))
			}
		}
		perm := rng.Perm(n)
		dests := append([]graph.NodeID(nil), perm[:2+rng.Intn(n/2)]...)
		sort.Ints(dests)
		servers := append([]graph.NodeID(nil), perm[len(perm)-3:]...)
		if rng.Intn(2) == 0 {
			servers[0] = dests[0] // a root that is also a destination
		}
		sort.Ints(servers)
		ev := &closureEvaluator{
			w:     &workGraph{g: g, servers: servers},
			req:   &multicast.Request{Destinations: dests},
			spSrv: make(map[graph.NodeID]*graph.ShortestPaths),
		}
		omega := make(map[graph.NodeID]float64)
		for _, v := range servers {
			sp, err := graph.Dijkstra(g, v)
			if err != nil {
				t.Fatal(err)
			}
			ev.spSrv[v], omega[v] = sp, float64(rng.Intn(4))
		}
		for _, d := range dests {
			sp, err := graph.Dijkstra(g, d)
			if err != nil {
				t.Fatal(err)
			}
			ev.spDst = append(ev.spDst, sp)
		}
		var s evalScratch
		ev.prepare(&s)
		for _, cand := range collectCandidates(servers, 3) {
			var err error
			if cand.rooted {
				err = ev.rootedMST(cand.servers[0], &s)
			} else {
				err = ev.closureMST(cand.servers, omega, &s)
			}
			if err != nil {
				t.Fatalf("seed %d cand %v: %v", seed, cand.servers, err)
			}
			full, want, werr := fullClosurePrim(ev, &s)
			if werr != nil {
				t.Fatalf("seed %d cand %v: full-closure Prim: %v", seed, cand.servers, werr)
			}
			if s.tree == &s.reduced {
				reduced++
			} else {
				fallback++
			}
			if got, exp := closureEdges(s.tree, &s.closureMST), closureEdges(full, want); fmt.Sprint(got) != fmt.Sprint(exp) ||
				math.Float64bits(s.closureMST.Weight) != math.Float64bits(want.Weight) {
				t.Fatalf("seed %d cand %v rooted=%v (reduced=%v): tree %v weight %v, full closure %v weight %v",
					seed, cand.servers, cand.rooted, s.tree == &s.reduced, got, s.closureMST.Weight, exp, want.Weight)
			}
		}
	}
	t.Logf("reduced tree on %d candidates, full-closure fallback on %d", reduced, fallback)
	if reduced == 0 || fallback == 0 {
		t.Fatalf("grid too easy: %d reduced, %d fallback", reduced, fallback)
	}
}
