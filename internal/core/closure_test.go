package core

// Oracles for the closure evaluator, whose KMB runs as a virtual-terminal
// row of the Steiner sweep over D_k. Each candidate's result — servers,
// real edges and auxiliary cost bits — is checked against a plain
// reference of the same pipeline built in the test: the full metric
// closure over {virtual source} ∪ D_k, Prim on it, each closure edge
// walked out of the entry server's or the lower destination's tree, and
// Kruskal then leaf pruning over the union with the virtual edges last.
// The sweep's reduced closure, its tie fallback and its branch census
// are checked inside package graph (TestSweepRowMatchesFullClosure).

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

// kmbResult is one candidate's KMB outcome as the candidate sweep sees
// it.
type kmbResult struct {
	servers   []graph.NodeID
	realEdges []graph.EdgeID
	cost      float64
}

func (r kmbResult) String() string {
	return fmt.Sprintf("(%v, %v, %v)", r.servers, r.realEdges, r.cost)
}

func (r kmbResult) equal(o kmbResult) bool {
	return fmt.Sprint(r.servers) == fmt.Sprint(o.servers) &&
		fmt.Sprint(r.realEdges) == fmt.Sprint(o.realEdges) &&
		math.Float64bits(r.cost) == math.Float64bits(o.cost)
}

// referenceKMB runs candidate c through the reference pipeline. Each
// destination enters at its cheapest server (the first on ties; the
// root for a rooted candidate). The full closure lays out the virtual
// edges first, then every finite destination pair (i, j), i < j. A
// virtual edge expands along the entry server's tree, a destination
// pair along the lower destination's. The rooted form has no virtual
// source: its root is a terminal of the pruning instead. cyclic
// reports whether the pruning graph had a cycle.
func referenceKMB(
	ev *closureEvaluator, c candidate, omega map[graph.NodeID]float64,
) (res kmbResult, cyclic bool, err error) {
	dests := ev.req.Destinations
	m := len(dests)
	entry := make([]graph.NodeID, m)
	closure := graph.New(m + 1)
	for j, d := range dests {
		best, bestV := graph.Infinity, graph.NodeID(-1)
		for _, v := range c.servers {
			dist := ev.spSrv[v].Dist[d]
			if dist >= graph.Infinity {
				continue
			}
			if !c.rooted {
				dist += omega[v]
			}
			if dist < best {
				best, bestV = dist, v
			}
		}
		if bestV == -1 {
			return res, false, ErrUnreachable
		}
		entry[j] = bestV
		closure.MustAddEdge(0, j+1, best)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if d := ev.spDst[i].Dist[dests[j]]; d < graph.Infinity {
				closure.MustAddEdge(i+1, j+1, d)
			}
		}
	}
	mst, err := graph.PrimMST(closure)
	if err != nil {
		return res, false, err
	}
	inUnion := make(map[graph.EdgeID]bool)
	var union []graph.EdgeID
	var virt []graph.NodeID
	for _, id := range mst.EdgeIDs {
		e := closure.Edge(id)
		a, b := min(e.U, e.V), max(e.U, e.V)
		var sp *graph.ShortestPaths
		if a == 0 {
			sp = ev.spSrv[entry[b-1]]
			if !c.rooted && !containsNode(virt, entry[b-1]) {
				virt = append(virt, entry[b-1])
			}
		} else {
			sp = ev.spDst[a-1]
		}
		_, edges, ok := sp.PathTo(dests[b-1])
		if !ok {
			return res, false, ErrUnreachable
		}
		for _, he := range edges {
			if !inUnion[he] {
				inUnion[he] = true
				union = append(union, he)
			}
		}
	}
	if c.rooted {
		res.servers, res.realEdges, res.cost = kruskalThenPrune(ev, union, nil, nil, c.servers[0])
		res.servers = c.servers
	} else {
		res.servers, res.realEdges, res.cost = kruskalThenPrune(ev, union, virt, omega)
	}
	return res, !isForest(ev, union, virt), nil
}

func containsNode(list []graph.NodeID, v graph.NodeID) bool {
	for _, u := range list {
		if u == v {
			return true
		}
	}
	return false
}

// sweepKMB runs candidate c through the evaluator (the sweep in s) with
// the dominated-subset skip off and copies the scratch-backed result.
func sweepKMB(ev *closureEvaluator, c candidate, omega map[graph.NodeID]float64, s *evalScratch) (kmbResult, error) {
	disableSubsetPruning = true
	defer func() { disableSubsetPruning = false }()
	var res kmbResult
	var err error
	if c.rooted {
		res.servers = c.servers
		res.realEdges, res.cost, err = ev.steinerRooted(c.servers[0], s)
	} else {
		res.servers, res.realEdges, res.cost, err = ev.steiner(c.servers, omega, s)
	}
	res.servers = append([]graph.NodeID(nil), res.servers...)
	res.realEdges = append([]graph.EdgeID(nil), res.realEdges...)
	return res, err
}

// unionCensus tallies what the reference saw across an oracle's
// candidates.
type unionCensus struct{ candidates, cyclic, rootAtDest int }

// matchReference checks every candidate of cands through the sweep
// against referenceKMB: the same error class, and for a tree the same
// servers, edges and cost bits.
func matchReference(t *testing.T, label string, ev *closureEvaluator, cands []candidate,
	omega map[graph.NodeID]float64, tally *unionCensus,
) {
	t.Helper()
	var s evalScratch
	if err := ev.prepare(&s); err != nil {
		t.Fatalf("%s: prepare: %v", label, err)
	}
	for idx, c := range cands {
		want, cyclic, werr := referenceKMB(ev, c, omega)
		got, err := sweepKMB(ev, c, omega, &s)
		candLabel := fmt.Sprintf("%s cand %d %v rooted=%v", label, idx, c.servers, c.rooted)
		if (err == nil) != (werr == nil) || err != nil && !errors.Is(err, ErrUnreachable) {
			t.Fatalf("%s: sweep err %v, reference err %v", candLabel, err, werr)
		}
		if err != nil {
			continue
		}
		if !got.equal(want) {
			t.Fatalf("%s: sweep %v, reference %v", candLabel, got, want)
		}
		tally.candidates++
		if cyclic {
			tally.cyclic++
		}
		if c.rooted && containsNode(ev.req.Destinations, c.servers[0]) {
			tally.rootAtDest++
		}
	}
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

// TestReducedClosureMatchesFullClosure is the row oracle on the planner
// grids: for every candidate (K = 3, dominated subsets included) of the
// continuous-cost and the equal-price substrates, the sweep's result is
// the reference pipeline's, which runs Prim on a freshly built full
// closure. The tie grid must reach rooted candidates whose root is a
// destination.
func TestReducedClosureMatchesFullClosure(t *testing.T) {
	counts := map[string]*unionCensus{"continuous": {}, "ties": {}}
	nets := closureNets(t)
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nw := nets[name]
		pricing, _, _ := strings.Cut(name, "/")
		for _, capacitated := range []bool{false, true} {
			for reqSeed := int64(0); reqSeed < 6; reqSeed++ {
				var req *multicast.Request
				if pricing == "ties" {
					req = tieRequests(t, nw, 2000+reqSeed, 1)[0]
				} else {
					req = testRequest(t, nw, 2000+reqSeed)
				}
				if fx := newSweepFixture(t, nw, req, capacitated, 3); fx != nil {
					label := fmt.Sprintf("%s/cap=%v/req=%d", name, capacitated, reqSeed)
					matchReference(t, label, fx.ev, fx.cands, fx.omega, counts[pricing])
				}
			}
		}
	}
	for _, pricing := range []string{"continuous", "ties"} {
		c := counts[pricing]
		t.Logf("%s: %d candidates, %d cyclic unions, %d rooted at a destination",
			pricing, c.candidates, c.cyclic, c.rootAtDest)
	}
	if c := counts["continuous"]; c.candidates == 0 {
		t.Fatal("no continuous-cost candidate")
	}
	if c := counts["ties"]; c.rootAtDest == 0 {
		t.Fatal("no rooted candidate at a destination on the tie grid")
	}
}

// kruskalThenPrune is the reference's steps 4-5: the pruning graph over
// the work graph's nodes plus the virtual source (sorted union edges,
// then sorted virtual edges), its Kruskal forest, and leaf pruning by
// repeated scans until no non-terminal leaf is left; survivors in
// ascending pruning-edge order.
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

// handEvaluator is a closure evaluator over g for dests, with a
// Dijkstra tree per server and destination and the given ω.
func handEvaluator(t *testing.T, g *graph.Graph, dests, servers []graph.NodeID) *closureEvaluator {
	t.Helper()
	ev := &closureEvaluator{
		w:     &workGraph{g: g, servers: servers},
		req:   &multicast.Request{Destinations: dests},
		spSrv: make(map[graph.NodeID]*graph.ShortestPaths),
	}
	for _, v := range servers {
		sp, err := graph.Dijkstra(g, v)
		if err != nil {
			t.Fatal(err)
		}
		ev.spSrv[v] = sp
	}
	for _, d := range dests {
		sp, err := graph.Dijkstra(g, d)
		if err != nil {
			t.Fatal(err)
		}
		ev.spDst = append(ev.spDst, sp)
	}
	return ev
}

// TestRefineCyclicUnionMatchesKruskal covers the branch the benchmark
// workload never takes: a union with a cycle. Server 4 reaches
// destination 3 across a square of equal routes (via 1 or via 2), and
// destination 3's own tree crosses it the other way towards
// destination 5, so the expanded paths close the square. Both the
// virtual-source and the rooted form must match the reference, with
// distinct and with equal outer weights (4–0, 5–0 and ω), and with
// distinct weights the answer is known.
func TestRefineCyclicUnionMatchesKruskal(t *testing.T) {
	for _, tied := range []bool{false, true} {
		w := func(x float64) float64 {
			if tied {
				return 3
			}
			return x
		}
		g := graph.New(6)
		g.MustAddEdge(0, 1, 1)
		g.MustAddEdge(0, 2, 1)
		g.MustAddEdge(2, 3, 1)
		g.MustAddEdge(1, 3, 1)
		g.MustAddEdge(4, 0, w(3))
		g.MustAddEdge(5, 0, w(4))
		ev := handEvaluator(t, g, []graph.NodeID{3, 5}, []graph.NodeID{4})
		omega := map[graph.NodeID]float64{4: w(5)}
		cands := []candidate{{servers: []graph.NodeID{4}}, {servers: []graph.NodeID{4}, rooted: true}}
		for _, c := range cands {
			if _, cyclic, err := referenceKMB(ev, c, omega); err != nil || !cyclic {
				t.Fatalf("tied=%v rooted=%v: fixture union is acyclic (err %v)", tied, c.rooted, err)
			}
		}
		var tally unionCensus
		matchReference(t, fmt.Sprintf("tied=%v", tied), ev, cands, omega, &tally)
		if tied {
			continue
		}
		// With distinct outer weights the answer is known. The server's
		// tree reaches 3 over 4–0–1–3 and 3's tree reaches 5 over
		// 3–2–0–5. Kruskal takes the square's edges in ascending order
		// and drops the last, 1–3 (edge 3); that leaves 1 a non-terminal
		// leaf, so 0–1 is pruned too. Prim from node 0 would keep 1–3.
		var s evalScratch
		if err := ev.prepare(&s); err != nil {
			t.Fatal(err)
		}
		servers, edges, cost, err := ev.steiner([]graph.NodeID{4}, omega, &s)
		if err != nil || fmt.Sprint(servers) != "[4]" || fmt.Sprint(edges) != "[1 2 4 5]" || cost != 14 {
			t.Fatalf("steiner = (%v, %v, %v, %v), want ([4], [1 2 4 5], 14, nil)", servers, edges, cost, err)
		}
	}
}

// TestRefineMatchesKruskalOnGrid runs every candidate of the
// TestScratchPriceMatchesBuiltTree grid, dominated subsets included,
// against the reference and reports how many unions were acyclic.
func TestRefineMatchesKruskalOnGrid(t *testing.T) {
	var tally unionCensus
	forEachFixture(t, func(label string, fx *sweepFixture) {
		matchReference(t, label, fx.ev, fx.cands, fx.omega, &tally)
	})
	t.Logf("%d candidates, %d cyclic unions", tally.candidates, tally.cyclic)
	if tally.candidates == tally.cyclic {
		t.Fatal("no acyclic union on the grid")
	}
}

// TestReducedClosureMatchesFullClosureSmallIntegers drives the same
// oracle through hand-built evaluators on small random graphs with
// integer weights, where the destinations' closure MST is often unique
// but candidate closures tie, and a server (so a rooted candidate's
// root) is often a destination.
func TestReducedClosureMatchesFullClosureSmallIntegers(t *testing.T) {
	var tally unionCensus
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
		ev := handEvaluator(t, g, dests, servers)
		omega := make(map[graph.NodeID]float64)
		for _, v := range servers {
			omega[v] = float64(rng.Intn(4))
		}
		matchReference(t, fmt.Sprintf("seed %d", seed), ev, collectCandidates(servers, 3), omega, &tally)
	}
	t.Logf("%d candidates, %d cyclic unions, %d rooted at a destination",
		tally.candidates, tally.cyclic, tally.rootAtDest)
	if tally.rootAtDest == 0 {
		t.Fatalf("grid too easy: %+v", tally)
	}
}
