package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// TestSteinerScratchReuseAcrossGraphs runs one scratch across graphs of
// different sizes to shake out stale-capacity bugs (a larger graph
// followed by a smaller one and vice versa), with and without a
// duplicated terminal, and checks every tree — terminals included — is
// the scratch-free SteinerKMB's.
func TestSteinerScratchReuseAcrossGraphs(t *testing.T) {
	scratch := new(SteinerScratch)
	sizes := []int{40, 8, 60, 5, 25}
	for i, n := range sizes {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		g := randomConnectedGraph(rng, n, n)
		for _, terms := range [][]NodeID{{0, n / 2, n - 1}, {n - 1, 0, n / 2, n - 1, 0}} {
			got, err := SteinerKMBScratch(g, terms, scratch)
			if err != nil {
				t.Fatalf("size %d %v: %v", n, terms, err)
			}
			want, err := SteinerKMB(g, terms)
			if err != nil {
				t.Fatalf("size %d %v: %v", n, terms, err)
			}
			if !sameTree(got, nil, want, nil) {
				t.Fatalf("size %d %v: %v %v (w=%v) != %v %v (w=%v)", n, terms,
					got.Terminals, got.EdgeIDs, got.Weight, want.Terminals, want.EdgeIDs, want.Weight)
			}
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
// ErrDisconnected — as SteinerKMBScratch, which runs a Dijkstra from
// every terminal, on the sweep's first call (full closure) and its
// second (reduced closure, or the duplicate path). Random float weights keep shortest paths and closure weights
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
			want, wantErr := SteinerKMBScratch(g, terms, scratch)
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

// TestInsertVaryingMatchesPrim is the insertion's oracle: on random
// rooted trees over 1–40 fixed terminals, with continuous or
// small-integer weights on the tree and on the varying terminal's row
// and the varying terminal at a random slot, a certified insertion must
// return the edge set of Prim over the rebuilt reduced closure, the
// tree's edges plus the row in the full call's numbering. Both outcomes
// must occur.
func TestInsertVaryingMatchesPrim(t *testing.T) {
	var s SteinerScratch
	var ws MSTWorkspace
	var mst MST
	certified, tied := 0, 0
	for trial := 0; trial < 4000; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		weight := func() float64 {
			if trial%2 == 0 {
				return 10 * rng.Float64()
			}
			return float64(1 + rng.Intn(3))
		}
		k := 1 + rng.Intn(40)
		sw := &s.sweep
		sw.at = rng.Intn(k + 1)
		idx := func(j int32) int {
			if int(j) >= sw.at {
				return int(j) + 1
			}
			return int(j)
		}
		red := New(k + 1)
		sw.mf = append(sw.mf[:0], make([]mfLink, k)...)
		sw.mf[0].parent = -1
		sw.mfOrder = append(sw.mfOrder[:0], 0)
		for _, y := range rng.Perm(k - 1) {
			child := int32(y + 1)
			sw.mf[child] = mfLink{parent: sw.mfOrder[rng.Intn(len(sw.mfOrder))], w: weight()}
			sw.mfOrder = append(sw.mfOrder, child)
			u, v := idx(sw.mf[child].parent), idx(child)
			red.MustAddEdge(min(u, v), max(u, v), sw.mf[child].w)
		}
		s.pm = s.pm[:0]
		for j := int32(0); j < int32(k); j++ {
			d := weight()
			s.pm = append(s.pm, pathMax{w: d, edge: int32(k) + j})
			red.MustAddEdge(min(sw.at, idx(j)), max(sw.at, idx(j)), d)
		}
		if !s.insertVarying() {
			tied++
			continue
		}
		certified++
		if err := ws.Prim(red, &mst); err != nil {
			t.Fatal(err)
		}
		var want, got []closurePair
		for _, id := range mst.EdgeIDs {
			e := red.Edge(id)
			want = append(want, closurePair{int32(e.U), int32(e.V)})
		}
		got = append(got, s.pairs...)
		for _, ps := range [][]closurePair{want, got} {
			slices.SortFunc(ps, func(x, y closurePair) int {
				return cmp.Or(cmp.Compare(x.u, y.u), cmp.Compare(x.v, y.v))
			})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (|F| = %d, v at %d): insertion kept %v, Prim %v", trial, k, sw.at, got, want)
		}
	}
	if certified == 0 || tied == 0 {
		t.Fatalf("one outcome never occurred: %d certified, %d tied", certified, tied)
	}
}

// closureCase is a complete closure over terminals 0..k-1 for the
// dense Prim's oracle: tree i's Dist is w[i], so w[i][j] is its distance
// to terminal j, and tree missing (-1 for none) is absent, as a
// sweep's varying terminal is in its full call. w need not be
// symmetric: the kernel must read what the closure Graph reads.
func closureCase(w [][]float64, missing int) ([]NodeID, []*ShortestPaths) {
	terms := make([]NodeID, len(w))
	sps := make([]*ShortestPaths, len(w))
	for i := range w {
		terms[i] = i
		if i != missing {
			sps[i] = &ShortestPaths{Source: i, Dist: w[i]}
		}
	}
	return terms, sps
}

// checkDenseClosureMST runs the dense Prim on a closure case and heap
// Prim on the closure Graph steinerKMB builds for it, and fails t
// unless the dense run certifies exactly when heap Prim reports Unique
// and, when it does, pops the indices in heap Prim's order, each with
// heap Prim's parent and edge weight. It reports whether it certified.
func checkDenseClosureMST(t *testing.T, terms []NodeID, sps []*ShortestPaths) bool {
	t.Helper()
	k := len(terms)
	closure := New(k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			closure.MustAddEdge(i, j, closureDist(terms, sps, nil, i, j))
		}
	}
	var ws MSTWorkspace
	var mst MST
	if err := ws.Prim(closure, &mst); err != nil {
		t.Fatal(err)
	}
	var d denseMST
	got := d.run(terms, sps, nil)
	if got == mfCut || (got == mfUnique) != mst.Unique {
		t.Fatalf("k = %d: dense verdict %d, heap Prim Unique = %v", k, got, mst.Unique)
	}
	if got != mfUnique {
		return false
	}
	inTree := make([]bool, k)
	inTree[0] = true
	order := []int32{0}
	for _, id := range mst.EdgeIDs {
		e := closure.Edge(id)
		child, parent := e.V, e.U
		if inTree[e.V] {
			child, parent = e.U, e.V
		}
		inTree[child] = true
		order = append(order, int32(child))
		if d.parent[child] != int32(parent) || math.Float64bits(d.key[child]) != math.Float64bits(e.W) {
			t.Fatalf("k = %d: index %d joins at %d (w=%v), heap Prim at %d (w=%v)",
				k, child, d.parent[child], d.key[child], parent, e.W)
		}
	}
	if !slices.Equal(d.order, order) {
		t.Fatalf("k = %d: pop order %v, heap Prim %v", k, d.order, order)
	}
	return true
}

// TestDenseClosureMSTMatchesPrim is the dense closure MST's oracle: on
// 20,000 random complete closures of 2–14 terminals, half with
// small-integer distances so ties are common, and a third with one
// terminal's tree missing, the dense Prim must certify exactly when heap
// Prim on the closure Graph reports Unique and then agree with it pop
// for pop. Both outcomes must occur.
func TestDenseClosureMSTMatchesPrim(t *testing.T) {
	certified, tied := 0, 0
	for trial := 0; trial < 20000; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		k := 2 + rng.Intn(13)
		w := make([][]float64, k)
		for i := range w {
			w[i] = make([]float64, k)
			for j := range w[i] {
				switch {
				case i == j:
				case trial%2 == 0:
					w[i][j] = 10 * rng.Float64()
				default:
					w[i][j] = float64(1 + rng.Intn(4))
				}
			}
		}
		missing := -1
		if trial%3 == 0 {
			missing = rng.Intn(k)
		}
		terms, sps := closureCase(w, missing)
		if checkDenseClosureMST(t, terms, sps) {
			certified++
		} else {
			tied++
		}
	}
	t.Logf("%d certified, %d tied", certified, tied)
	if certified == 0 || tied == 0 {
		t.Fatalf("one outcome never occurred: %d certified, %d tied", certified, tied)
	}
}

// waxmanSubstrate is a Waxman graph over n nodes of the unit square, the
// model of the benchmark substrates: each pair (u, v) is a link with
// probability min(1, c·exp(−d(u, v)/(0.14·√2))), c scaled for an
// average degree of 4, weighted by its length; each node but the first
// also links to its nearest predecessor, which keeps the graph
// connected.
func waxmanSubstrate(rng *rand.Rand, n int) *Graph {
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	dist := func(u, v int) float64 { return math.Hypot(xs[u]-xs[v], ys[u]-ys[v]) }
	accept := func(u, v int) float64 { return math.Exp(-dist(u, v) / (0.14 * math.Sqrt2)) }
	var raw float64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			raw += accept(u, v)
		}
	}
	c := 2 * float64(n) / raw
	g := New(n)
	for v := 1; v < n; v++ {
		near := 0
		for u := 1; u < v; u++ {
			if dist(u, v) < dist(near, v) {
				near = u
			}
		}
		g.MustAddEdge(near, v, dist(near, v))
		for u := 0; u < v; u++ {
			if u != near && rng.Float64() < min(1, c*accept(u, v)) {
				g.MustAddEdge(u, v, dist(u, v))
			}
		}
	}
	return g
}

// TestDenseClosureCensus replays Online_CP's sweeps — one over {s_k} ∪
// D_k, 5–20 destinations, with each of ten candidate servers inserted at
// slot 1 — for 200 requests on a Waxman-100 substrate, and counts how
// each closure MST, a full call's step 2 or M_F, was computed. Priced as
// Online_CP prices it, β^(utilisation after b_k) − 1 with capacities of
// 1,000–10,000 Mbps, every other request on an idle network and the rest
// under random loads, every closure MST must certify. With every link at
// weight 1, the shape of SP's hop counts, closure MSTs tie and fall back
// to the closure Graph. On both, the digest of every tree and error the
// sweeps return is pinned to the value recorded before the dense closure
// MST existed.
func TestDenseClosureCensus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		unit   bool
		digest string
	}{
		{"priced", false, "3e0a8dae77b052e541533d580b790964d8f8110251d3e9185a29edac4c55d637"},
		{"unit", true, "149f607db666ba877485a86e942a9df013b2314d3c176b47855a360b08075a0f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			g := waxmanSubstrate(rng, 100)
			beta := 2 * float64(g.NumNodes())
			caps := make([]float64, g.NumEdges())
			for e := range caps {
				caps[e] = 1000 + 9000*rng.Float64()
			}
			var s SteinerScratch
			var tree SteinerTree
			h := sha256.New()
			for req := 0; req < 200; req++ {
				b := float64(10 + rng.Intn(91))
				for e, c := range caps {
					w := 1.0
					if !tc.unit {
						free := c * (1 - 0.5*rng.Float64()*float64(req%2))
						w = math.Pow(beta, 1-(free-b)/c) - 1
					}
					if err := g.SetWeight(e, w); err != nil {
						t.Fatal(err)
					}
				}
				perm := rng.Perm(g.NumNodes())
				terms, servers := perm[:6+rng.Intn(16)], perm[21:31] // s_k and 5–20 destinations
				sps := make([]*ShortestPaths, len(terms))
				for i, v := range terms {
					sp, err := Dijkstra(g, v)
					if err != nil {
						t.Fatal(err)
					}
					sps[i] = sp
				}
				if err := s.BeginSweep(g, terms, sps, 1); err != nil {
					t.Fatal(err)
				}
				for _, v := range servers {
					err := s.SweepTree(v, &tree)
					fmt.Fprintln(h, tree.EdgeIDs, math.Float64bits(tree.Weight), err)
				}
			}
			c := s.census
			t.Logf("census %+v", c)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("digest %s, recorded %s", got, tc.digest)
			}
			if !tc.unit && (c.denseTied != 0 || c.denseCertified < 200) {
				t.Fatalf("priced stream: %d closure MSTs certified, %d tied; want all of at least 200 certified",
					c.denseCertified, c.denseTied)
			}
			if tc.unit && c.denseTied == 0 {
				t.Fatalf("unit weights: no closure MST tied (%d certified)", c.denseCertified)
			}
		})
	}
}

// entryRow is the row Appro_Multi hands SweepRow for a server subset:
// each fixed terminal enters at its cheapest server, omega[v] +
// Dist[t] of v's tree, the first of servers on ties. ok is false when
// some terminal is cut off from every server.
func entryRow(fixed, servers []NodeID, sps []*ShortestPaths, omega []float64) (via []*ShortestPaths, w []float64, ok bool) {
	for _, t := range fixed {
		best, bestV := Infinity, -1
		for _, v := range servers {
			if d := sps[v].Dist[t]; d < Infinity && omega[v]+d < best {
				best, bestV = omega[v]+d, v
			}
		}
		if bestV == -1 {
			return nil, nil, false
		}
		via = append(via, sps[bestV])
		w = append(w, omega[bestV])
	}
	return via, w, true
}

// rootedRow is the row of the rooted candidate at r.
func rootedRow(fixed []NodeID, sp *ShortestPaths) []*ShortestPaths {
	via := make([]*ShortestPaths, len(fixed))
	for i := range via {
		via[i] = sp
	}
	return via
}

// TestSweepRowMatchesFullClosure is the row sweep's oracle: on
// small-integer graphs, and on the gadget whose union has a cycle,
// subset rows with small-integer virtual weights and the rooted row of
// every node are priced against a twin sweep held on the full-closure
// path, and trees, servers and errors must agree bit for bit. Every
// branch must have run: the certified reduced closure, the tie
// fallback, a rooted row whose root is a fixed terminal, and tree and
// cyclic unions.
func TestSweepRowMatchesFullClosure(t *testing.T) {
	var fast, ref SteinerScratch
	var got, want SteinerTree
	check := func(label string, g *Graph, fixed []NodeID, at int, rng *rand.Rand) {
		t.Helper()
		sps := make([]*ShortestPaths, g.NumNodes())
		for v := range sps {
			sp, err := Dijkstra(g, v)
			if err != nil {
				t.Fatal(err)
			}
			sps[v] = sp
		}
		fixedSPs := make([]*ShortestPaths, len(fixed))
		for i, f := range fixed {
			fixedSPs[i] = sps[f]
		}
		for _, s := range []*SteinerScratch{&fast, &ref} {
			if err := s.BeginSweep(g, fixed, fixedSPs, at); err != nil {
				t.Fatal(err)
			}
		}
		price := func(row string, via []*ShortestPaths, omega []float64) {
			t.Helper()
			gotSrv, gotErr := fast.SweepRow(via, omega, &got)
			gotSrv = append([]NodeID(nil), gotSrv...)
			disableReducedClosure = true
			wantSrv, wantErr := ref.SweepRow(via, omega, &want)
			disableReducedClosure = false
			if !sameTree(&got, gotErr, &want, wantErr) || fmt.Sprint(gotSrv) != fmt.Sprint(wantSrv) {
				t.Fatalf("%s: fixed %v at %d, %s:\n got %v %v (w=%v, err %v)\nwant %v %v (w=%v, err %v)",
					label, fixed, at, row, gotSrv, got.EdgeIDs, got.Weight, gotErr, wantSrv, want.EdgeIDs, want.Weight, wantErr)
			}
		}
		omega := make([]float64, g.NumNodes())
		for v := range omega {
			omega[v] = float64(rng.Intn(4))
		}
		for _, r := range rng.Perm(g.NumNodes()) {
			if sps[r].Reachable(fixed[0]) {
				price(fmt.Sprintf("rooted at %d", r), rootedRow(fixed, sps[r]), nil)
			}
			servers := rng.Perm(g.NumNodes())[:1+rng.Intn(3)]
			if via, w, ok := entryRow(fixed, servers, sps, omega); ok {
				price(fmt.Sprintf("servers %v", servers), via, w)
			}
		}
	}
	gadget := cyclicUnionGadget()
	for _, fixed := range [][]NodeID{{3, 5}, {5, 3}, {4, 3, 5}} {
		for at := 0; at <= len(fixed); at++ {
			check("gadget", gadget, fixed, at, rand.New(rand.NewSource(int64(at))))
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := smallIntGraph(rng, n, rng.Intn(2*n))
		for trial := 0; trial < 3; trial++ {
			fixed := rng.Perm(n)[:1+rng.Intn(min(7, n))]
			check(fmt.Sprintf("seed %d trial %d", seed, trial), g, fixed, rng.Intn(len(fixed)+1), rng)
		}
	}
	c := fast.census
	if c.certified == 0 || c.tie == 0 || c.rootAtFixed == 0 || c.treeUnions == 0 || c.cyclicUnions == 0 {
		t.Fatalf("a branch never ran: %+v", c)
	}
}

// TestSweepRowContract: the row sweep returns the fixed terminals, the
// used servers and the virtual edges' weights on top of the host
// edges'; a lone virtual terminal is the empty tree; and malformed rows
// — repeated fixed terminals, a row of the wrong length, a missing
// entry tree, a rooted row with two roots — are refused.
func TestSweepRowContract(t *testing.T) {
	g := New(4) // 0-1-2-3
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 4)
	sps := make([]*ShortestPaths, 4)
	for v := range sps {
		sps[v], _ = Dijkstra(g, v)
	}
	var s SteinerScratch
	var tree SteinerTree
	if err := s.BeginSweep(g, []NodeID{0, 3}, []*ShortestPaths{sps[0], sps[3]}, 0); err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 2; call++ {
		// 0 enters at server 1 (ω 1), 3 at server 2 (ω 2): closure
		// weights 2 and 6 undercut the 0–3 distance 7.
		srv, err := s.SweepRow([]*ShortestPaths{sps[1], sps[2]}, []float64{1, 2}, &tree)
		if err != nil || fmt.Sprint(srv) != "[1 2]" || fmt.Sprint(tree.Terminals) != "[0 3]" ||
			fmt.Sprint(tree.EdgeIDs) != "[0 2]" || tree.Weight != 1+4+1+2 {
			t.Fatalf("call %d: servers %v, tree %+v, err %v", call, srv, tree, err)
		}
		srv, err = s.SweepRow([]*ShortestPaths{sps[1], sps[1]}, nil, &tree)
		if err != nil || fmt.Sprint(srv) != "[1]" || fmt.Sprint(tree.EdgeIDs) != "[0 1 2]" || tree.Weight != 7 {
			t.Fatalf("call %d rooted: servers %v, tree %+v, err %v", call, srv, tree, err)
		}
	}
	if err := s.BeginSweep(g, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if srv, err := s.SweepRow(nil, nil, &tree); err != nil || len(srv) != 0 || len(tree.EdgeIDs) != 0 || tree.Weight != 0 {
		t.Fatalf("lone virtual terminal: servers %v, tree %+v, err %v", srv, tree, err)
	}
	if err := s.BeginSweep(g, []NodeID{0, 3, 0}, []*ShortestPaths{sps[0], sps[3], sps[0]}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SweepRow([]*ShortestPaths{sps[1], sps[1], sps[1]}, nil, &tree); err == nil {
		t.Fatal("repeated fixed terminals accepted")
	}
	if err := s.BeginSweep(g, []NodeID{0, 3}, []*ShortestPaths{sps[0], sps[3]}, 0); err != nil {
		t.Fatal(err)
	}
	for name, row := range map[string][]*ShortestPaths{
		"short row":     {sps[1]},
		"missing entry": {sps[1], nil},
		"two roots":     {sps[1], sps[2]},
	} {
		if _, err := s.SweepRow(row, nil, &tree); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := s.SweepRow([]*ShortestPaths{sps[1], sps[2]}, []float64{1}, &tree); err == nil {
		t.Fatal("weights of the wrong length accepted")
	}
}
