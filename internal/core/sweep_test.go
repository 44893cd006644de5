package core

// Oracles for the candidate sweep's three shortcuts — the
// dominated-subset skip, pricing on scratch and realising only
// incumbent-beaters. Each is checked against the sweep that takes none
// of them: every candidate through the unskipped KMB pipeline, decompose
// and OperationalCost, first strict improvement wins.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// sweepFixture is Appro_Multi's per-request prelude, opened up so tests
// can walk the candidate list themselves.
type sweepFixture struct {
	nw    *sdn.Network
	req   *multicast.Request
	w     *workGraph
	spSrc *graph.ShortestPaths
	omega map[graph.NodeID]float64
	ev    *closureEvaluator
	cands []candidate

	capacitated bool
}

// newSweepFixture mirrors ApproMulti up to the candidate evaluation; it
// returns nil when the request is infeasible before any candidate runs.
func newSweepFixture(t *testing.T, nw *sdn.Network, req *multicast.Request, capacitated bool, k int) *sweepFixture {
	t.Helper()
	w := buildWorkGraph(nw.Graph(), nw, req, capacitated, func(e graph.EdgeID) float64 {
		return nw.LinkUnitCost(e) * req.BandwidthMbps
	})
	spSrc, err := graph.Dijkstra(w.g, req.Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range req.Destinations {
		if !spSrc.Reachable(d) {
			return nil
		}
	}
	demand := req.ComputeDemandMHz()
	var reachSrv []graph.NodeID
	omega := make(map[graph.NodeID]float64)
	spSrv := make(map[graph.NodeID]*graph.ShortestPaths)
	for _, v := range w.servers {
		if !spSrc.Reachable(v) {
			continue
		}
		reachSrv = append(reachSrv, v)
		omega[v] = spSrc.Dist[v] + nw.ServerUnitCost(v)*demand
		if spSrv[v], err = graph.Dijkstra(w.g, v); err != nil {
			t.Fatal(err)
		}
	}
	if len(reachSrv) == 0 {
		return nil
	}
	ev, err := newClosureEvaluator(w, req, spSrv, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &sweepFixture{
		nw: nw, req: req, w: w, spSrc: spSrc, omega: omega, ev: ev,
		cands:       collectCandidates(reachSrv, k),
		capacitated: capacitated,
	}
}

// kmb runs candidate c through the closure pipeline with the
// dominated-subset skip off, returning copies of the scratch-backed
// results.
func (fx *sweepFixture) kmb(c candidate, s *evalScratch) (servers []graph.NodeID, realEdges []graph.EdgeID, aux float64, err error) {
	disableSubsetPruning = true
	defer func() { disableSubsetPruning = false }()
	if c.rooted {
		var treeCost float64
		realEdges, treeCost, err = fx.ev.steinerRooted(c.servers[0], s)
		servers, aux = c.servers, fx.omega[c.servers[0]]+treeCost
	} else {
		servers, realEdges, aux, err = fx.ev.steiner(c.servers, fx.omega, s)
	}
	return append([]graph.NodeID(nil), servers...), append([]graph.EdgeID(nil), realEdges...), aux, err
}

// exhaustive is the reference sweep: every candidate built and priced
// from its tree, the first strict improvement kept.
func (fx *sweepFixture) exhaustive() bestCandidate {
	best := bestCandidate{op: graph.Infinity, idx: -1}
	var s evalScratch
	fx.ev.prepare(&s)
	for idx, c := range fx.cands {
		servers, realEdges, aux, err := fx.kmb(c, &s)
		if err != nil {
			continue
		}
		tree, err := decompose(fx.w, fx.req, fx.spSrc, servers, realEdges, &s)
		if err != nil {
			continue
		}
		if op := OperationalCost(fx.nw, fx.req, tree); op < best.op {
			best = bestCandidate{op: op, aux: aux, tree: tree, idx: idx}
		}
	}
	return best
}

// degrade fails two links and a server and saturates every seventh link
// and one more server, so failure filtering always bites and the
// capacitated view differs from the uncapacitated one.
func degrade(t *testing.T, nw *sdn.Network) {
	t.Helper()
	m := nw.NumEdges()
	for _, e := range []graph.EdgeID{m / 3, 2 * m / 3} {
		if err := nw.SetLinkUp(e, false); err != nil {
			t.Fatal(err)
		}
	}
	srv := nw.Servers()
	if err := nw.SetServerUp(srv[len(srv)/2], false); err != nil {
		t.Fatal(err)
	}
	a := sdn.Allocation{Servers: []sdn.ServerShare{{Node: srv[0], MHz: nw.ResidualCompute(srv[0])}}}
	for e := 0; e < m; e += 7 {
		if nw.LinkUp(e) {
			a.Links = append(a.Links, sdn.LinkShare{Edge: e, Mbps: nw.ResidualBandwidth(e) - 1})
		}
	}
	if err := nw.Allocate(a); err != nil {
		t.Fatal(err)
	}
}

// sweepGrid is the oracle grid: GÉANT, a fat-tree and Waxman-100/150,
// each degraded.
func sweepGrid(t *testing.T) map[string]*sdn.Network {
	t.Helper()
	nets := map[string]*sdn.Network{
		"geant":     geantNetwork(t, 5),
		"fattree":   oracleNetwork(t, "fattree", 8),
		"waxman100": testNetwork(t, 100, 2),
		"waxman150": testNetwork(t, 150, 3),
	}
	for _, nw := range nets {
		degrade(t, nw)
	}
	return nets
}

// forEachFixture visits the grid × K ∈ {1,2,3} × capacitated on/off ×
// twelve requests in a fixed order.
func forEachFixture(t *testing.T, fn func(label string, fx *sweepFixture)) {
	t.Helper()
	nets := sweepGrid(t)
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nw := nets[name]
		for k := 1; k <= 3; k++ {
			for _, capacitated := range []bool{false, true} {
				for reqSeed := int64(0); reqSeed < 12; reqSeed++ {
					req := testRequest(t, nw, 2000+reqSeed)
					if fx := newSweepFixture(t, nw, req, capacitated, k); fx != nil {
						fn(fmt.Sprintf("%s/K=%d/cap=%v/req=%d", name, k, capacitated, reqSeed), fx)
					}
				}
			}
		}
	}
}

// TestScratchPriceMatchesBuiltTree is the pricing oracle: for every
// candidate of the grid the scratch walker's (edge, load) sequence is
// the built tree's sorted LinkLoads and the scratch price is its
// OperationalCost to the last bit.
func TestScratchPriceMatchesBuiltTree(t *testing.T) {
	var candidates, crossed, sharedPrefix int
	forEachFixture(t, func(label string, fx *sweepFixture) {
		var s evalScratch
		fx.ev.prepare(&s)
		for idx, c := range fx.cands {
			servers, realEdges, _, err := fx.kmb(c, &s)
			if err != nil {
				continue
			}
			loads, ok := treeLoads(fx.w, fx.spSrc, servers, realEdges, &s)
			if !ok {
				t.Fatalf("%s cand %d: walker found server cut off", label, idx)
			}
			walked := append([]edgeLoad(nil), loads...)
			price := operationalPrice(fx.nw, fx.req, walked, servers)
			tree, err := decompose(fx.w, fx.req, fx.spSrc, servers, realEdges, &s)
			if err != nil {
				t.Fatalf("%s cand %d: decompose: %v", label, idx, err)
			}
			candidates++
			if want := OperationalCost(fx.nw, fx.req, tree); math.Float64bits(price) != math.Float64bits(want) {
				t.Fatalf("%s cand %d %v: scratch price %v != OperationalCost %v", label, idx, c.servers, price, want)
			}
			want := tree.LinkLoads()
			if len(walked) != len(want) {
				t.Fatalf("%s cand %d: walker saw %d links, tree has %d", label, idx, len(walked), len(want))
			}
			for i, l := range walked {
				host := l.edge
				if i > 0 && walked[i-1].edge >= host {
					t.Fatalf("%s cand %d: walker order breaks at %d", label, idx, i)
				}
				if want[i] != (multicast.EdgeLoad{Edge: host, Uses: l.load}) {
					t.Fatalf("%s cand %d: link %d load %d, tree says %v", label, idx, host, l.load, want[i])
				}
				if l.load == 2 {
					crossed++
				}
			}
			// Source paths that share a prefix: fewer unprocessed hops
			// than the paths' summed lengths.
			if len(servers) > 1 {
				pathHops, unprocessed := 0, 0
				for _, v := range servers {
					pathHops += fx.spSrc.Depth(v)
				}
				for _, h := range tree.Hops() {
					if !h.Processed {
						unprocessed++
					}
				}
				if unprocessed < pathHops {
					sharedPrefix++
				}
			}
		}
	})
	if candidates == 0 || crossed == 0 || sharedPrefix == 0 {
		t.Fatalf("grid too easy: %d candidates, %d load-2 links, %d multi-server subsets with shared source-path prefixes",
			candidates, crossed, sharedPrefix)
	}
}

// TestDominatedSubsetEqualsEntrySubset is the dominance oracle: whenever
// the skip fires on S, its distinct entry servers U form an earlier
// candidate whose KMB result is the unskipped result of S — servers,
// edges and auxiliary cost.
func TestDominatedSubsetEqualsEntrySubset(t *testing.T) {
	fired := 0
	forEachFixture(t, func(label string, fx *sweepFixture) {
		var s evalScratch
		fx.ev.prepare(&s)
		for idx, c := range fx.cands {
			if c.rooted {
				continue
			}
			_, _, _, err := fx.ev.steiner(c.servers, fx.omega, &s)
			if !errors.Is(err, errDominated) {
				continue
			}
			fired++
			var u []graph.NodeID
			for _, v := range c.servers {
				for _, sp := range s.via {
					if sp.Source == v {
						u = append(u, v)
						break
					}
				}
			}
			uIdx := -1
			for i, o := range fx.cands[:idx] {
				if !o.rooted && fmt.Sprint(o.servers) == fmt.Sprint(u) {
					uIdx = i
					break
				}
			}
			if uIdx == -1 || len(u) >= len(c.servers) {
				t.Fatalf("%s cand %d %v: entry subset %v is not an earlier candidate", label, idx, c.servers, u)
			}
			wantSrv, wantEdges, wantAux, werr := fx.kmb(c, &s)
			gotSrv, gotEdges, gotAux, gerr := fx.ev.steiner(u, fx.omega, &s)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s cand %d: S=%v err %v, U=%v err %v", label, idx, c.servers, werr, u, gerr)
			}
			if werr != nil {
				continue
			}
			if math.Float64bits(gotAux) != math.Float64bits(wantAux) ||
				fmt.Sprint(gotSrv) != fmt.Sprint(wantSrv) || fmt.Sprint(gotEdges) != fmt.Sprint(wantEdges) {
				t.Fatalf("%s cand %d: steiner(U=%v) = (%v, %v, %v), unskipped steiner(S=%v) = (%v, %v, %v)",
					label, idx, u, gotSrv, gotEdges, gotAux, c.servers, wantSrv, wantEdges, wantAux)
			}
		}
	})
	if fired == 0 {
		t.Fatal("dominated-subset skip never fired on the grid")
	}
}

// TestApproMultiMatchesExhaustiveSweep pins the decisions: at workers
// {1,4}, ApproMulti returns the exhaustive sweep's tree and costs.
func TestApproMultiMatchesExhaustiveSweep(t *testing.T) {
	solved := 0
	nets := sweepGrid(t)
	for _, name := range []string{"geant", "waxman100"} {
		nw := nets[name]
		for _, capacitated := range []bool{false, true} {
			for reqSeed := int64(0); reqSeed < 3; reqSeed++ {
				req := testRequest(t, nw, 1300+reqSeed)
				fx := newSweepFixture(t, nw, req, capacitated, 3)
				if fx == nil {
					continue
				}
				want := fx.exhaustive()
				if want.tree == nil {
					continue
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/cap=%v/req=%d/workers=%d", name, capacitated, reqSeed, workers)
					got, err := ApproMulti(nw, req, Options{K: 3, Capacitated: capacitated, Workers: workers})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertSolutionsIdentical(t, label, &Solution{
						Tree: want.tree, Servers: want.tree.Servers,
						OperationalCost: want.op, SelectionCost: want.aux,
					}, got)
					solved++
				}
			}
		}
	}
	if solved == 0 {
		t.Fatal("grid solved nothing")
	}
}

// TestAlgOneServerMatchesPerCandidateReference: pricing before building
// leaves Alg_One_Server's choice unchanged.
func TestAlgOneServerMatchesPerCandidateReference(t *testing.T) {
	forEachFixture(t, func(label string, fx *sweepFixture) {
		want := bestCandidate{op: graph.Infinity}
		var s evalScratch
		fx.ev.prepare(&s)
		for _, c := range fx.cands {
			if !c.rooted {
				continue
			}
			servers, realEdges, aux, err := fx.kmb(c, &s)
			if err != nil {
				continue
			}
			tree, err := decompose(fx.w, fx.req, fx.spSrc, servers, realEdges, &s)
			if err != nil {
				continue
			}
			if op := OperationalCost(fx.nw, fx.req, tree); op < want.op {
				want = bestCandidate{op: op, aux: aux, tree: tree}
			}
		}
		got, err := AlgOneServer(fx.nw, fx.req, fx.capacitated)
		if want.tree == nil {
			if err == nil {
				t.Fatalf("%s: solved, reference found no tree", label)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertSolutionsIdentical(t, label, &Solution{
			Tree: want.tree, Servers: want.tree.Servers,
			OperationalCost: want.op, SelectionCost: want.aux,
		}, got)
	})
}
