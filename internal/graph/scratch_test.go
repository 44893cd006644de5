package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestDijkstraIntoMatchesFresh runs one workspace across many roots of
// many random graphs and checks each result is identical to a fresh
// Dijkstra — the workspace must leak no state between runs.
func TestDijkstraIntoMatchesFresh(t *testing.T) {
	var ws DijkstraWorkspace
	sp := new(ShortestPaths)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 2+rng.Intn(40), rng.Intn(60))
		// Occasionally isolate a node so unreachable handling is
		// exercised through the reused workspace too.
		if seed%4 == 0 {
			g.AddNode()
		}
		for root := 0; root < g.NumNodes(); root++ {
			if err := ws.DijkstraInto(g, root, sp); err != nil {
				t.Fatalf("seed %d root %d: DijkstraInto: %v", seed, root, err)
			}
			want, err := Dijkstra(g, root)
			if err != nil {
				t.Fatalf("seed %d root %d: Dijkstra: %v", seed, root, err)
			}
			if !reflect.DeepEqual(sp.Dist, want.Dist) {
				t.Fatalf("seed %d root %d: Dist mismatch", seed, root)
			}
			for v := 0; v < g.NumNodes(); v++ {
				gotN, gotE, gotOK := sp.PathTo(v)
				wantN, wantE, wantOK := want.PathTo(v)
				if gotOK != wantOK || !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotE, wantE) {
					t.Fatalf("seed %d root %d target %d: PathTo mismatch:\n got %v %v %v\nwant %v %v %v",
						seed, root, v, gotN, gotE, gotOK, wantN, wantE, wantOK)
				}
				if sp.Depth(v) != want.Depth(v) {
					t.Fatalf("seed %d root %d target %d: Depth %d != %d",
						seed, root, v, sp.Depth(v), want.Depth(v))
				}
			}
		}
	}
}

// TestVisitPathEdgesMatchesPathTo checks the allocation-free edge walk
// yields PathTo's edges in reverse (target → source) order.
func TestVisitPathEdgesMatchesPathTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(rng, 30, 40)
	sp, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		var walked []EdgeID
		ok := sp.VisitPathEdges(v, func(e EdgeID) bool {
			walked = append(walked, e)
			return true
		})
		_, edges, wantOK := sp.PathTo(v)
		if ok != wantOK {
			t.Fatalf("target %d: ok %v != %v", v, ok, wantOK)
		}
		for i, j := 0, len(walked)-1; i < j; i, j = i+1, j-1 {
			walked[i], walked[j] = walked[j], walked[i]
		}
		if len(walked) != len(edges) {
			t.Fatalf("target %d: %d edges walked, want %d", v, len(walked), len(edges))
		}
		for i := range walked {
			if walked[i] != edges[i] {
				t.Fatalf("target %d: edge %d: %d != %d", v, i, walked[i], edges[i])
			}
		}
	}
}

// TestSteinerKMBWithSPsMatchesSteinerKMB feeds precomputed per-terminal
// shortest paths (the planner's sharing pattern) through one reused
// scratch and checks every tree is byte-identical to the scratch-free
// SteinerKMB — including with duplicated terminals, whose trees must
// dedup in lockstep.
func TestSteinerKMBWithSPsMatchesSteinerKMB(t *testing.T) {
	scratch := new(SteinerScratch)
	var ws DijkstraWorkspace
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := randomConnectedGraph(rng, n, rng.Intn(70))
		// Precompute one tree per node, as the planner shares them.
		sps := make([]*ShortestPaths, n)
		for v := 0; v < n; v++ {
			sps[v] = new(ShortestPaths)
			if err := ws.DijkstraInto(g, v, sps[v]); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 10; trial++ {
			k := 1 + rng.Intn(6)
			terms := make([]NodeID, k)
			termSPs := make([]*ShortestPaths, k)
			for i := range terms {
				terms[i] = rng.Intn(n)
				termSPs[i] = sps[terms[i]]
			}
			if trial%3 == 0 && k > 1 { // force a duplicate
				terms[k-1] = terms[0]
				termSPs[k-1] = termSPs[0]
			}
			got, err := SteinerKMBWithSPs(g, terms, termSPs, scratch)
			if err != nil {
				t.Fatalf("seed %d trial %d: WithSPs: %v", seed, trial, err)
			}
			want, err := SteinerKMB(g, terms)
			if err != nil {
				t.Fatalf("seed %d trial %d: SteinerKMB: %v", seed, trial, err)
			}
			if !reflect.DeepEqual(got.Terminals, want.Terminals) {
				t.Fatalf("seed %d trial %d: terminals %v != %v", seed, trial, got.Terminals, want.Terminals)
			}
			if len(got.EdgeIDs) != len(want.EdgeIDs) || got.Weight != want.Weight {
				t.Fatalf("seed %d trial %d: tree mismatch: %v (w=%v) != %v (w=%v)",
					seed, trial, got.EdgeIDs, got.Weight, want.EdgeIDs, want.Weight)
			}
			for i := range got.EdgeIDs {
				if got.EdgeIDs[i] != want.EdgeIDs[i] {
					t.Fatalf("seed %d trial %d: edge %d: %d != %d",
						seed, trial, i, got.EdgeIDs[i], want.EdgeIDs[i])
				}
			}
		}
	}
}

// TestSteinerKMBWithSPsValidation covers the argument contract: length
// mismatch, wrong-root and missing trees must be rejected.
func TestSteinerKMBWithSPsValidation(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	sp0, _ := Dijkstra(g, 0)
	if _, err := SteinerKMBWithSPs(g, []NodeID{0, 2}, []*ShortestPaths{sp0}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SteinerKMBWithSPs(g, []NodeID{0, 2}, []*ShortestPaths{sp0, sp0}, nil); err == nil {
		t.Fatal("wrong-root tree accepted")
	}
	if _, err := SteinerKMBWithSPs(g, []NodeID{0, 2}, []*ShortestPaths{sp0, nil}, nil); err == nil {
		t.Fatal("missing tree accepted")
	}
	sp2, _ := Dijkstra(g, 2)
	tree, err := SteinerKMBWithSPs(g, []NodeID{0, 2}, []*ShortestPaths{sp0, sp2}, nil)
	if err != nil || len(tree.EdgeIDs) != 2 {
		t.Fatalf("valid call failed: %v %v", tree, err)
	}
}

// TestSteinerScratchReuseAcrossGraphs runs one scratch across graphs of
// different sizes to shake out stale-capacity bugs (a larger graph
// followed by a smaller one and vice versa).
func TestSteinerScratchReuseAcrossGraphs(t *testing.T) {
	scratch := new(SteinerScratch)
	sizes := []int{40, 8, 60, 5, 25}
	for i, n := range sizes {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		g := randomConnectedGraph(rng, n, n)
		terms := []NodeID{0, n / 2, n - 1}
		got, err := SteinerKMBScratch(g, terms, scratch)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		want, err := SteinerKMB(g, terms)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !reflect.DeepEqual(got.EdgeIDs, want.EdgeIDs) || got.Weight != want.Weight {
			t.Fatalf("size %d: %v != %v", n, got.EdgeIDs, want.EdgeIDs)
		}
	}
}

// sameTree reports whether two KMB results agree bit for bit: the same
// error text, terminals, edge IDs in order and weight bits.
func sameTree(got *SteinerTree, gotErr error, want *SteinerTree, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil && gotErr.Error() == wantErr.Error()
	}
	if len(got.EdgeIDs) != len(want.EdgeIDs) || len(got.Terminals) != len(want.Terminals) ||
		math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
		return false
	}
	for i := range got.EdgeIDs {
		if got.EdgeIDs[i] != want.EdgeIDs[i] {
			return false
		}
	}
	for i := range got.Terminals {
		if got.Terminals[i] != want.Terminals[i] {
			return false
		}
	}
	return true
}

// without returns terms and sps with position i removed: a sweep's
// fixed terminals when terms[i] is the varying one.
func without(terms []NodeID, sps []*ShortestPaths, i int) ([]NodeID, []*ShortestPaths) {
	ft := append(append([]NodeID(nil), terms[:i]...), terms[i+1:]...)
	fs := append(append([]*ShortestPaths(nil), sps[:i]...), sps[i+1:]...)
	return ft, fs
}

// TestSweepTreeNilRowMatchesAllTrees pins the tree-less varying
// terminal of a sweep: with any one terminal swept instead of given a
// tree, the closure row read from the other terminals' trees must give
// the byte-identical tree (EdgeIDs and Weight) — or the same
// ErrDisconnected — as the all-trees call, on the sweep's first call
// (full closure) and its second (reduced closure, or the duplicate
// path). Random float weights keep shortest paths and closure weights
// tie-free, the condition under which the tree-less row equals v's own
// Dijkstra. Every third graph gets a second component so some terminal
// sets straddle it.
func TestSweepTreeNilRowMatchesAllTrees(t *testing.T) {
	scratch, sweep := new(SteinerScratch), new(SteinerScratch)
	var tree SteinerTree
	graphs, disconnected, dupLater, dedupedAway := 0, 0, 0, 0
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := 4 + rng.Intn(40)
		g := randomConnectedGraph(rng, n, rng.Intn(70))
		if seed%3 == 0 { // a second component of 1-5 nodes
			base := g.NumNodes()
			for i, extra := 0, 1+rng.Intn(5); i < extra; i++ {
				v := g.AddNode()
				if v > base {
					g.MustAddEdge(base+rng.Intn(v-base), v, rng.Float64()*10)
				}
			}
			n = g.NumNodes()
		}
		graphs++
		sps := make([]*ShortestPaths, n)
		for v := range sps {
			sp, err := Dijkstra(g, v)
			if err != nil {
				t.Fatal(err)
			}
			sps[v] = sp
		}
		for trial := 0; trial < 4; trial++ {
			k := 2 + rng.Intn(6)
			terms := make([]NodeID, k)
			for i := range terms {
				terms[i] = rng.Intn(n)
			}
			switch trial {
			case 1: // the planner's server ∈ D_k: terminal 1 repeats at the end
				terms[k-1] = terms[k/2]
			case 2: // the planner's server == source: terminal 1 deduped away
				terms[1] = terms[0]
			}
			full := make([]*ShortestPaths, k)
			for i, v := range terms {
				full[i] = sps[v]
			}
			want, wantErr := SteinerKMBWithSPs(g, terms, full, scratch)
			if wantErr != nil {
				if !errors.Is(wantErr, ErrDisconnected) {
					t.Fatalf("seed %d trial %d: all-trees call: %v", seed, trial, wantErr)
				}
				disconnected++
			}
			for hole := range terms {
				// Sweep the terminal at one position only; a later
				// duplicate of that terminal keeps its tree and must be
				// deduplicated away unused.
				first := true
				for _, v := range terms[:hole] {
					first = first && v != terms[hole]
				}
				later := false
				for _, v := range terms[hole+1:] {
					later = later || v == terms[hole]
				}
				if first && later {
					dupLater++
				}
				if !first {
					dedupedAway++
				}
				fixed, fixedSPs := without(terms, full, hole)
				if err := sweep.BeginSweep(g, fixed, fixedSPs, hole); err != nil {
					t.Fatal(err)
				}
				for call := 1; call <= 2; call++ {
					err := sweep.SweepTree(terms[hole], &tree)
					if wantErr != nil {
						if !errors.Is(err, ErrDisconnected) {
							t.Fatalf("seed %d trial %d hole %d call %d: err %v, want ErrDisconnected",
								seed, trial, hole, call, err)
						}
						continue
					}
					if !sameTree(&tree, err, want, nil) {
						t.Fatalf("seed %d trial %d hole %d call %d terms %v:\n got %v (w=%v, err %v)\nwant %v (w=%v)",
							seed, trial, hole, call, terms, tree.EdgeIDs, tree.Weight, err, want.EdgeIDs, want.Weight)
					}
				}
			}
		}
	}
	if graphs < 300 || disconnected == 0 || dupLater == 0 || dedupedAway == 0 {
		t.Fatalf("coverage: %d graphs, %d disconnected sets, %d holes duplicated later, %d deduped away",
			graphs, disconnected, dupLater, dedupedAway)
	}
	if c := sweep.census; c.certified == 0 || c.duplicate == 0 {
		t.Fatalf("second calls never took the reduced closure or the duplicate path: %+v", c)
	}
}

// TestSweepTreeContract: an unreachable varying terminal is
// ErrDisconnected, a varying terminal equal to a fixed one is one
// distinct terminal, a varying terminal alone is the trivial tree, and
// malformed sweeps — a fixed terminal without its tree among them — are
// refused up front.
func TestSweepTreeContract(t *testing.T) {
	g := New(4) // 0-1-2, node 3 isolated
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	sp0, _ := Dijkstra(g, 0)
	sp1, _ := Dijkstra(g, 1)
	sp2, _ := Dijkstra(g, 2)
	var s SteinerScratch
	var tree SteinerTree
	sweep := func(fixed []NodeID, sps []*ShortestPaths, at int, v NodeID) []error {
		t.Helper()
		if err := s.BeginSweep(g, fixed, sps, at); err != nil {
			t.Fatal(err)
		}
		var errs []error
		for call := 0; call < 2; call++ {
			errs = append(errs, s.SweepTree(v, &tree))
		}
		return errs
	}
	for _, err := range sweep([]NodeID{0, 2}, []*ShortestPaths{sp0, sp2}, 1, 3) {
		if !errors.Is(err, ErrDisconnected) {
			t.Fatalf("unreachable varying terminal: err %v, want ErrDisconnected", err)
		}
	}
	for _, err := range sweep([]NodeID{0, 1, 2}, []*ShortestPaths{sp0, sp1, sp2}, 1, 1) {
		if err != nil || !reflect.DeepEqual(tree.EdgeIDs, []EdgeID{0, 1}) ||
			!reflect.DeepEqual(tree.Terminals, []NodeID{0, 1, 2}) {
			t.Fatalf("varying terminal equal to a fixed one: %v %v", tree, err)
		}
	}
	for _, err := range sweep(nil, nil, 0, 1) {
		if err != nil || len(tree.EdgeIDs) != 0 || !reflect.DeepEqual(tree.Terminals, []NodeID{1}) {
			t.Fatalf("lone varying terminal: %v %v", tree, err)
		}
	}
	if err := s.BeginSweep(g, []NodeID{0, 2}, []*ShortestPaths{sp0}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := s.BeginSweep(g, []NodeID{0, 2}, []*ShortestPaths{sp0, sp2}, 3); err == nil {
		t.Fatal("slot past the end accepted")
	}
	if err := s.BeginSweep(g, []NodeID{0, 2}, []*ShortestPaths{sp0, nil}, 1); err == nil {
		t.Fatal("fixed terminal without a tree accepted")
	}
	if err := s.BeginSweep(g, []NodeID{0, 2}, []*ShortestPaths{sp0, sp0}, 1); err == nil {
		t.Fatal("wrong-root tree accepted")
	}
	if err := s.BeginSweep(g, []NodeID{0, 4}, []*ShortestPaths{sp0, sp2}, 1); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("fixed terminal out of range: err %v, want ErrNodeOutOfRange", err)
	}
}

// smallIntGraph is randomConnectedGraph with weights 1..3, so equal
// shortest paths and equal closure edges are common, plus one isolated
// node so some varying terminals are unreachable.
func smallIntGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New(n + 1)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, float64(1+rng.Intn(3)))
	}
	for i := 0; i < extra; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(u, v, float64(1+rng.Intn(3)))
		}
	}
	return g
}

// cyclicUnionGadget is a graph on which KMB's step-3 union has a cycle:
// terminals 4 and 5 hang off node 0 by weight-3 edges, and 0 reaches
// terminal 3 over two equal two-hop routes (via 1 and via 2). The
// closure MST over {4, 3, 5} is {4–3, 3–5}, and the trees rooted at 4
// and at 3 take different routes across the square.
func cyclicUnionGadget() *Graph {
	g := New(6)
	for _, e := range [][3]int{{0, 1, 1}, {0, 2, 1}, {2, 3, 1}, {1, 3, 1}, {4, 0, 3}, {5, 0, 3}} {
		g.MustAddEdge(e[0], e[1], float64(e[2]))
	}
	return g
}

// TestSweepTreeMatchesFullClosure is the sweep's oracle: on graphs whose
// small-integer weights make ties the rule, every node of the graph —
// fixed terminals, the source slot's terminal and the isolated node
// included — is swept against a twin sweep held on the full-closure
// path, and the trees must agree bit for bit, errors included. Every
// branch must have run: the certified reduced closure, the tie
// fallback, the duplicate-terminal path, and tree and cyclic unions.
func TestSweepTreeMatchesFullClosure(t *testing.T) {
	var fast, ref SteinerScratch
	var got, want SteinerTree
	check := func(label string, g *Graph, fixed []NodeID, at int, order []NodeID) {
		t.Helper()
		fixedSPs := make([]*ShortestPaths, len(fixed))
		for i, f := range fixed {
			sp, err := Dijkstra(g, f)
			if err != nil {
				t.Fatal(err)
			}
			fixedSPs[i] = sp
		}
		if err := fast.BeginSweep(g, fixed, fixedSPs, at); err != nil {
			t.Fatal(err)
		}
		if err := ref.BeginSweep(g, fixed, fixedSPs, at); err != nil {
			t.Fatal(err)
		}
		for _, v := range order {
			gotErr := fast.SweepTree(v, &got)
			disableReducedClosure = true
			wantErr := ref.SweepTree(v, &want)
			disableReducedClosure = false
			if !sameTree(&got, gotErr, &want, wantErr) {
				t.Fatalf("%s: fixed %v at %d v %d:\n got %v (w=%v, err %v)\nwant %v (w=%v, err %v)",
					label, fixed, at, v, got.EdgeIDs, got.Weight, gotErr, want.EdgeIDs, want.Weight, wantErr)
			}
		}
	}
	gadget := cyclicUnionGadget()
	for _, fixed := range [][]NodeID{{4, 5}, {4, 3, 5}, {5, 4}} {
		for at := 0; at <= len(fixed); at++ {
			check("gadget", gadget, fixed, at, []NodeID{0, 1, 2, 3, 4, 5})
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := smallIntGraph(rng, n, rng.Intn(2*n))
		for trial := 0; trial < 4; trial++ {
			k := 1 + rng.Intn(7)
			fixed := make([]NodeID, k)
			for i := range fixed {
				fixed[i] = rng.Intn(n)
				if trial == 3 && i == k-1 {
					fixed[i] = n // the isolated node: F disconnected
				}
			}
			check(fmt.Sprintf("seed %d trial %d", seed, trial), g, fixed, rng.Intn(k+1), rng.Perm(g.NumNodes()))
		}
	}
	c := fast.census
	if c.certified == 0 || c.tie == 0 || c.duplicate == 0 || c.treeUnions == 0 || c.cyclicUnions == 0 {
		t.Fatalf("a branch never ran: %+v", c)
	}
}
