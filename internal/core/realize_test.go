package core

// Realize oracle. realizeSingleServer collects a pseudo tree's hops in
// one pass, stopping each fan-out walk at the first node an earlier
// fan-out reached, and hands the distinct list over in one copy with
// the link loads read off the Steiner tree's edges. The realization it
// replaced sent every hop through PseudoTree.AddHop, whose duplicate
// scan drops the hops two fan-outs share, and sorted the hops' edges
// for the loads; it is kept here, and both must give the same hop
// sequence, order included, and the same link loads.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// realizeByAddHop is realizeSingleServer before the early stop: each
// destination's whole path from its start (v when it lies in v's
// subtree, else u) goes through AddHop. It also returns how many hops
// AddHop dropped as duplicates.
func realizeByAddHop(
	w *workGraph, req *multicast.Request, v, u graph.NodeID, arena *PlanArena,
) (*multicast.PseudoTree, int) {
	rt := &arena.rooted
	tree := multicast.NewPseudoTree(req.Source, req.Destinations, []graph.NodeID{v})
	offered := 0
	addPath := func(anc, desc graph.NodeID, down, processed bool) {
		var hops []multicast.Hop
		for at := desc; at != anc; at = rt.parentNode[at] {
			h := multicast.Hop{From: at, To: rt.parentNode[at], Edge: rt.parentEdge[at], Processed: processed}
			if down {
				h.From, h.To = h.To, h.From
			}
			hops = append(hops, h)
		}
		offered += len(hops)
		for i := range hops {
			if down {
				tree.AddHop(hops[len(hops)-1-i])
			} else {
				tree.AddHop(hops[i])
			}
		}
	}
	addPath(req.Source, v, true, false)
	addPath(u, v, false, true)
	for _, d := range req.Destinations {
		start := u
		if a, _ := rt.lca(v, d); a == v {
			start = v
		}
		addPath(start, d, true, true)
	}
	return tree, offered - tree.NumHops()
}

// sameRealization fails t unless got, the linear realization, has
// want's hops in want's order, no hop twice, and want's link loads,
// operational cost bits and allocation.
func sameRealization(t *testing.T, label string, nw *sdn.Network, req *multicast.Request, got, want *multicast.PseudoTree) {
	t.Helper()
	gh, wh := got.Hops(), want.Hops()
	if !slices.Equal(gh, wh) {
		t.Fatalf("%s: hops\n got %v\nwant %v", label, gh, wh)
	}
	seen := make(map[multicast.Hop]bool, len(gh))
	for _, h := range gh {
		if seen[h] {
			t.Fatalf("%s: hop %v twice", label, h)
		}
		seen[h] = true
	}
	gl, wl := got.LinkLoads(), want.LinkLoads()
	if !slices.Equal(gl, wl) {
		t.Fatalf("%s: loads\n got %v\nwant %v", label, gl, wl)
	}
	var visited []multicast.EdgeLoad
	got.VisitLinkLoads(func(l multicast.EdgeLoad) { visited = append(visited, l) })
	if !slices.Equal(visited, wl) {
		t.Fatalf("%s: visited loads\n got %v\nwant %v", label, visited, wl)
	}
	if nw == nil {
		return
	}
	if g, w := OperationalCost(nw, req, got), OperationalCost(nw, req, want); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: operational cost %v, want %v", label, g, w)
	}
	ga, wa := AllocationFor(req, got), AllocationFor(req, want)
	if !slices.Equal(ga.Links, wa.Links) || !slices.Equal(ga.Servers, wa.Servers) {
		t.Fatalf("%s: allocation %v, want %v", label, ga, wa)
	}
}

// TestRealizeMatchesAddHopOnRandomTrees realizes 4,000 random rooted
// trees of 2–60 nodes both ways. A third of the draws put every
// destination in v's subtree (u == v) and a third put some on the
// back-track path between v and u; the test fails unless fan-outs
// sharing a prefix, destinations below v with u != v, u == v, v == s_k
// and destinations on the back-track path all occurred.
func TestRealizeMatchesAddHopOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	arena := NewPlanArena()
	var shared, belowV, uIsV, vIsSource, onBacktrack int
	for trial := 0; trial < 4000; trial++ {
		n := 2 + rng.Intn(59)
		// Node labels are shuffled so the root is not node 0; parent[c]
		// is drawn among the nodes labelled before c, from a short or a
		// wide window, for deep chains and bushy fans alike.
		label := rng.Perm(n)
		root := label[0]
		parent := make([]graph.NodeID, n)
		parent[root] = -1
		window := 1 + rng.Intn(n)
		type link struct{ a, b graph.NodeID }
		links := make([]link, 0, n-1)
		for i := 1; i < n; i++ {
			lo := max(0, i-window)
			p := label[lo+rng.Intn(i-lo)]
			parent[label[i]] = p
			links = append(links, link{label[i], p})
		}
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		g := graph.New(n)
		ids := make([]graph.EdgeID, len(links))
		for i, l := range links {
			if rng.Intn(2) == 0 {
				l.a, l.b = l.b, l.a
			}
			ids[i] = g.MustAddEdge(l.a, l.b, 1)
		}
		w := &workGraph{g: g}

		isAncestor := func(a, x graph.NodeID) bool { // a == x or a above x
			for ; x >= 0; x = parent[x] {
				if x == a {
					return true
				}
			}
			return false
		}
		v := graph.NodeID(rng.Intn(n))
		var pool []graph.NodeID
		switch trial % 3 {
		case 0: // anywhere
			pool = rng.Perm(n)
		case 1: // v's subtree, v included
			for x := 0; x < n; x++ {
				if isAncestor(v, x) {
					pool = append(pool, x)
				}
			}
		case 2: // v's ancestors first, then anywhere
			for x := parent[v]; x >= 0; x = parent[x] {
				pool = append(pool, x)
			}
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			pool = append(pool, rng.Perm(n)...)
		}
		var dests []graph.NodeID
		want := 1 + rng.Intn(min(n-1, 16))
		for _, x := range pool {
			if x != root && !slices.Contains(dests, x) {
				dests = append(dests, x)
			}
			if len(dests) == want {
				break
			}
		}
		if len(dests) == 0 {
			continue
		}
		req := &multicast.Request{ID: trial, Source: root, Destinations: dests}
		u, err := rootAtSource(w, req, v, &graph.SteinerTree{EdgeIDs: ids}, arena)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref, dropped := realizeByAddHop(w, req, v, u, arena)
		got := realizeSingleServer(req, v, u, ids, arena)
		sameRealization(t, fmt.Sprintf("trial %d (n=%d s=%d v=%d u=%d D=%v)", trial, n, root, v, u, dests), nil, req, got, ref)

		if dropped > 0 {
			shared++
		}
		if u == v {
			uIsV++
		}
		if v == root {
			vIsSource++
		}
		for _, d := range dests {
			switch {
			case u != v && d != v && isAncestor(v, d):
				belowV++
			case d != v && isAncestor(d, v) && isAncestor(u, d):
				onBacktrack++
			}
		}
	}
	t.Logf("shared prefixes %d, u == v %d, v == s %d, destinations below v (u != v) %d, on the back-track path %d",
		shared, uIsV, vIsSource, belowV, onBacktrack)
	if shared == 0 || uIsV == 0 || vIsSource == 0 || belowV == 0 || onBacktrack == 0 {
		t.Fatal("a case the oracle must cover never occurred")
	}
}

// TestRealizeMatchesAddHopOnStreams checks every winner Online_CP
// realizes, and every repair RepairReroute realizes, on seeded
// Waxman-100 and GÉANT streams: each admitted plan is committed, the
// oldest of 150 live sessions departs, and every 40 requests a link
// used by a live session fails, the sessions it cuts are repaired with
// their servers pinned, and the link comes back up.
func TestRealizeMatchesAddHopOnStreams(t *testing.T) {
	nets := []struct {
		name string
		nw   *sdn.Network
		seed int64
	}{
		{"waxman100", testNetwork(t, 100, 42), 7},
		{"geant", geantNetwork(t, 4), 13},
	}
	for _, nc := range nets {
		t.Run(nc.name, func(t *testing.T) {
			nw := nc.nw
			planner, err := NewCPPlanner(DefaultCostModel(nw.NumNodes()))
			if err != nil {
				t.Fatal(err)
			}
			adm := NewAdmitter(nw, planner)
			gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), nc.seed)
			if err != nil {
				t.Fatal(err)
			}
			arena := NewPlanArena()
			rng := rand.New(rand.NewSource(nc.seed))
			// lastRealized re-realizes the arena's rooted tree the old
			// way and compares it with sol's, whose loads must also name
			// every edge of the Steiner tree: no pruned tree has an edge
			// the hops leave unused.
			lastRealized := func(label string, w *workGraph, req *multicast.Request, sol *Solution) {
				v := sol.Servers[0]
				u, ok := v, true
				for _, d := range req.Destinations {
					u, ok = arena.rooted.lca(u, d)
					if !ok {
						t.Fatalf("%s: destination %d outside the rooted tree", label, d)
					}
				}
				ref, _ := realizeByAddHop(w, req, v, u, arena)
				sameRealization(t, label, nw, req, sol.Tree, ref)
				var treeEdges, loaded []graph.EdgeID
				for x := range arena.rooted.seen {
					if arena.rooted.inTree(x) && x != req.Source {
						treeEdges = append(treeEdges, arena.rooted.parentEdge[x])
					}
				}
				slices.Sort(treeEdges)
				sol.Tree.VisitLinkLoads(func(l multicast.EdgeLoad) { loaded = append(loaded, l.Edge) })
				if !slices.Equal(loaded, treeEdges) {
					t.Fatalf("%s: loads on %v, tree edges %v", label, loaded, treeEdges)
				}
			}
			var live []int
			reqs := map[int]*multicast.Request{}
			winners, repairs := 0, 0
			for i := 0; i < 600; i++ {
				req, err := gen.Next()
				if err != nil {
					t.Fatal(err)
				}
				sol, err := planner.Plan(context.Background(), nw, req, arena)
				if err != nil {
					if !IsRejection(err) {
						t.Fatal(err)
					}
					continue
				}
				w, _ := planner.cache.acquire(nw, req) // the plan's own work graph: a cache hit
				lastRealized(fmt.Sprintf("req %d", req.ID), w, req, sol)
				winners++
				if _, err := adm.Commit(req, sol); err != nil {
					continue
				}
				live = append(live, req.ID)
				reqs[req.ID] = req
				if len(live) > 150 {
					if _, err := adm.Depart(live[0]); err != nil {
						t.Fatal(err)
					}
					live = live[1:]
				}
				if i%40 != 39 {
					continue
				}
				victim := adm.Lives()[rng.Intn(adm.LiveCount())]
				links := AllocationFor(victim.Request, victim.Tree).Links
				failed := links[rng.Intn(len(links))].Edge
				if err := nw.SetLinkUp(failed, false); err != nil {
					t.Fatal(err)
				}
				for _, id := range adm.AffectedLive() {
					damaged, _ := adm.LiveSolution(id)
					if err := adm.ReleaseLive(id); err != nil {
						t.Fatal(err)
					}
					rep, rerr := RepairReroute(nw, reqs[id], damaged.Servers[0], arena)
					if rerr == nil {
						// Local edge IDs depend on link membership only,
						// so any pricing rebuilds the repair's view.
						rw := buildWorkGraph(nw.Graph(), nw, reqs[id], true, func(graph.EdgeID) float64 { return 1 })
						lastRealized(fmt.Sprintf("repair of %d", id), rw, reqs[id], rep)
						repairs++
						rerr = adm.Rebind(id, rep)
					}
					if rerr != nil {
						if err := adm.DropLive(id); err != nil {
							t.Fatal(err)
						}
						live = slices.DeleteFunc(live, func(x int) bool { return x == id })
					}
				}
				if err := nw.SetLinkUp(failed, true); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%d winners, %d repairs", winners, repairs)
			if winners < 250 || repairs < 50 {
				t.Fatalf("only %d winners and %d repairs checked", winners, repairs)
			}
		})
	}
}

// TestRealizeLoadsFromTree pins the loads of a realization in which the
// fan-out from u retraces the back-track: on the path s=0 – 1 – 2 – v=3
// with destinations 2 and 4 (4 hanging off 1), u = LCA(3, 2, 4) = 1, so
// link 1–2 carries the unprocessed stream down, the back-track up and
// the fan-out to 2 down again. The loads must be the run-length count
// of the sorted hop edges, listed in the tree's edge order.
func TestRealizeLoadsFromTree(t *testing.T) {
	g := graph.New(5)
	e12 := g.MustAddEdge(2, 1, 1) // IDs out of path order
	e01 := g.MustAddEdge(0, 1, 1)
	e14 := g.MustAddEdge(4, 1, 1)
	e23 := g.MustAddEdge(2, 3, 1)
	edges := []graph.EdgeID{e12, e01, e14, e23}
	slices.Sort(edges)
	w := &workGraph{g: g}
	req := &multicast.Request{ID: 1, Source: 0, Destinations: []graph.NodeID{2, 4}}
	arena := NewPlanArena()
	u, err := rootAtSource(w, req, 3, &graph.SteinerTree{EdgeIDs: edges}, arena)
	if err != nil || u != 1 {
		t.Fatalf("u = %d, err %v; want 1", u, err)
	}
	tree := realizeSingleServer(req, 3, u, edges, arena)
	var ids []graph.EdgeID
	for _, h := range tree.Hops() {
		ids = append(ids, h.Edge)
	}
	slices.Sort(ids)
	var runs []multicast.EdgeLoad
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		runs = append(runs, multicast.EdgeLoad{Edge: ids[i], Uses: j - i})
		i = j
	}
	want := []multicast.EdgeLoad{{Edge: e12, Uses: 3}, {Edge: e01, Uses: 1}, {Edge: e14, Uses: 1}, {Edge: e23, Uses: 2}}
	slices.SortFunc(want, func(a, b multicast.EdgeLoad) int { return a.Edge - b.Edge })
	if got := tree.LinkLoads(); !slices.Equal(got, want) || !slices.Equal(runs, want) {
		t.Fatalf("loads %v, hop runs %v; want %v", got, runs, want)
	}
	if err := tree.CheckDelivery(g); err != nil {
		t.Fatal(err)
	}
}
