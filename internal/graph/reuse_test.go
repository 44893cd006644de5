package graph

import (
	"math"
	"math/rand"
	"testing"
)

func sameShortestPaths(t *testing.T, got, want *ShortestPaths, n int) {
	t.Helper()
	if got.Source != want.Source {
		t.Fatalf("source %d != %d", got.Source, want.Source)
	}
	for v := 0; v < n; v++ {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
			t.Fatalf("Dist[%d] = %v, want %v (bit compare)", v, got.Dist[v], want.Dist[v])
		}
		if got.parentNode[v] != want.parentNode[v] {
			t.Fatalf("parent[%d] = %d, want %d", v, got.parentNode[v], want.parentNode[v])
		}
		if got.parentEdge[v] != want.parentEdge[v] {
			t.Fatalf("parentEdge[%d] = %d, want %d", v, got.parentEdge[v], want.parentEdge[v])
		}
		if got.depth[v] != want.depth[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, got.depth[v], want.depth[v])
		}
	}
}

// reuseStructure builds a random structure for the reuse oracles: a
// random spanning tree over the first part of the nodes, a disconnected
// remainder with its own edges, extra random edges, parallel edges and
// self-loops. Weights are set by reweight.
func reuseStructure(rng *rand.Rand, n, extra int) *Graph {
	g := New(n)
	main := 1 + rng.Intn(n)
	if rng.Intn(2) == 0 {
		main = n
	}
	for v := 1; v < main; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1)
	}
	for i := 0; i < extra; i++ {
		var u, v int
		switch r := rng.Intn(10); {
		case r == 0: // self-loop
			u = rng.Intn(n)
			v = u
		case r == 1 && g.NumEdges() > 0: // parallel edge
			e := g.Edge(rng.Intn(g.NumEdges()))
			u, v = e.U, e.V
		case main < n && r < 4: // inside the disconnected remainder
			u, v = main+rng.Intn(n-main), main+rng.Intn(n-main)
		default: // inside the main part
			u, v = rng.Intn(main), rng.Intn(main)
		}
		g.MustAddEdge(u, v, 1)
	}
	return g
}

// reweight prices every edge of g for one of the oracle's weight
// modes: continuous, small integers (tie-heavy), or continuous with a
// share of zeros.
func reweight(rng *rand.Rand, g *Graph, mode int) {
	for e := 0; e < g.NumEdges(); e++ {
		var w float64
		switch mode {
		case 0:
			w = rng.Float64() * 10
		case 1:
			w = float64(rng.Intn(4))
		default:
			if w = rng.Float64() * 10; rng.Intn(5) == 0 {
				w = 0
			}
		}
		if err := g.SetWeight(e, w); err != nil {
			panic(err)
		}
	}
}

// nudge moves a few weights of g, the way one request's bandwidth moves
// a work graph's prices relative to the last request's.
func nudge(rng *rand.Rand, g *Graph, k int) {
	for i := 0; i < k && g.NumEdges() > 0; i++ {
		e := rng.Intn(g.NumEdges())
		if err := g.SetWeight(e, g.Weight(e)*(0.5+rng.Float64())); err != nil {
			panic(err)
		}
	}
}

// checkReuse runs ReuseInto from old on g into sp and demands either
// ok=false or a tree bit-identical to a fresh DijkstraInto.
func checkReuse(t *testing.T, ws *DijkstraWorkspace, g *Graph, old, sp *ShortestPaths) bool {
	t.Helper()
	ok, err := ws.ReuseInto(g, old, sp)
	if err != nil {
		t.Fatalf("well-formed old tree refused: %v", err)
	}
	if ok {
		var want ShortestPaths
		if err := ws.DijkstraInto(g, old.Source, &want); err != nil {
			t.Fatal(err)
		}
		sameShortestPaths(t, sp, &want, g.NumNodes())
	}
	return ok
}

// TestReuseIntoMatchesDijkstra is the kernel's oracle: over random
// structures with tie-heavy, zero and continuous weights, parallel
// edges, self-loops and disconnected parts, a tree built under one
// weight vector and reused under another is either refused or
// bit-identical to a fresh Dijkstra. Both outcomes must occur.
func TestReuseIntoMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var ws DijkstraWorkspace
	var sp ShortestPaths // reused across trials: no state may leak
	reused, refused := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(60)
		g := reuseStructure(rng, n, rng.Intn(2*n))
		mode := rng.Intn(3)
		reweight(rng, g, mode)
		prev := g.WeightClone()
		if rng.Intn(4) == 0 {
			reweight(rng, prev, rng.Intn(3)) // unrelated prices
		} else {
			nudge(rng, prev, 1+rng.Intn(4))
		}
		var old ShortestPaths
		if err := ws.DijkstraInto(prev, rng.Intn(n), &old); err != nil {
			t.Fatal(err)
		}
		if checkReuse(t, &ws, g, &old, &sp) {
			reused++
		} else {
			refused++
		}
	}
	if reused == 0 || refused == 0 {
		t.Fatalf("reused %d, refused %d: the oracle needs both outcomes", reused, refused)
	}
	t.Logf("reused %d, refused %d", reused, refused)
}

// TestReuseIntoInconsistentOld feeds old trees whose columns are in
// range but disagree with each other: depths that list a node before
// its parent, labels from other weights, and parent cycles. None is an
// error, and none may certify a wrong tree.
func TestReuseIntoInconsistentOld(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ws DijkstraWorkspace
	var sp ShortestPaths
	for trial := 0; trial < 500; trial++ {
		n := 8 + rng.Intn(40)
		g := randomConnectedGraph(rng, n, n)
		prev := g.WeightClone()
		for e := 0; e < g.NumEdges(); e++ {
			// Cheaper old prices: stale labels undercut the new ones.
			if err := prev.SetWeight(e, g.Weight(e)*(0.2+0.5*rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		var old ShortestPaths
		if err := ws.DijkstraInto(prev, rng.Intn(n), &old); err != nil {
			t.Fatal(err)
		}
		switch trial % 3 {
		case 0: // pull deep nodes up to depth 1, ahead of their parents
			for v := 0; v < n; v++ {
				if old.depth[v] >= 3 && rng.Intn(2) == 0 {
					old.depth[v] = 1
				}
			}
		case 1: // shuffle the depth column
			for v := 0; v < n; v++ {
				if v != old.Source && old.depth[v] > 0 {
					old.depth[v] = int32(1 + rng.Intn(n-1))
				}
			}
		default: // point a node's parent at its own child
			for v := 0; v < n; v++ {
				c := int32(v)
				p := old.parentNode[c]
				if p < 0 || p == int32(old.Source) {
					continue
				}
				old.parentNode[p], old.parentEdge[p] = c, old.parentEdge[c]
				break
			}
		}
		checkReuse(t, &ws, g, &old, &sp)
	}
}

// TestReuseIntoParentMovesBelowRounding relabels a node by less than
// its child's sum can resolve: node 2 moves from depth 2 to depth 1,
// and its child 4 keeps its label bit for bit, so only its depth shows
// the move. The kernel must not report the old depth.
func TestReuseIntoParentMovesBelowRounding(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	direct := g.MustAddEdge(0, 2, 3)
	g.MustAddEdge(2, 4, 4)
	g.MustAddEdge(0, 3, 1)
	var ws DijkstraWorkspace
	var old, got ShortestPaths
	if err := ws.DijkstraInto(g, 0, &old); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(direct, math.Nextafter(2, 0)); err != nil {
		t.Fatal(err)
	}
	if 2+4 != math.Nextafter(2, 0)+4 || old.Depth(4) != 3 {
		t.Fatal("the gadget no longer hides node 2's move from node 4's label")
	}
	checkReuse(t, &ws, g, &old, &got)
}

// TestReuseIntoVerdictIndependentOfEdgeOrder builds each random
// structure twice, the second time with its edges inserted in a random
// permutation, and reuses the same old tree on both (its parent edges
// mapped through the permutation). The scan's edge order and the
// adjacency order must not move the verdict, and when both certify the
// trees must agree bit for bit, edges mapped. Both outcomes must occur.
func TestReuseIntoVerdictIndependentOfEdgeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	var ws DijkstraWorkspace
	var sp, spp ShortestPaths
	reused, refused := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(60)
		g := reuseStructure(rng, n, rng.Intn(2*n))
		reweight(rng, g, trial%3)
		prev := g.WeightClone()
		if rng.Intn(4) == 0 {
			reweight(rng, prev, rng.Intn(3))
		} else {
			nudge(rng, prev, 1+rng.Intn(4))
		}
		var old ShortestPaths
		if err := ws.DijkstraInto(prev, rng.Intn(n), &old); err != nil {
			t.Fatal(err)
		}

		// gp's edge j is g's edge perm[j]; g's edge i is gp's edge at[i].
		m := g.NumEdges()
		perm, at := rng.Perm(m), make([]int32, m)
		gp := New(n)
		for j, i := range perm {
			e := g.Edge(i)
			gp.MustAddEdge(e.U, e.V, e.W)
			at[i] = int32(j)
		}
		oldp := &ShortestPaths{Source: old.Source}
		oldp.resize(n)
		copy(oldp.Dist, old.Dist)
		copy(oldp.cols, old.cols)
		for v := range oldp.parentEdge {
			if e := oldp.parentEdge[v]; e >= 0 {
				oldp.parentEdge[v] = at[e]
			}
		}

		ok := checkReuse(t, &ws, g, &old, &sp)
		if okp := checkReuse(t, &ws, gp, oldp, &spp); okp != ok {
			t.Fatalf("trial %d: verdict %v in insertion order, %v permuted", trial, ok, okp)
		}
		if !ok {
			refused++
			continue
		}
		reused++
		for v := 0; v < n; v++ {
			e, ep := sp.parentEdge[v], spp.parentEdge[v]
			if math.Float64bits(sp.Dist[v]) != math.Float64bits(spp.Dist[v]) ||
				sp.parentNode[v] != spp.parentNode[v] || sp.depth[v] != spp.depth[v] ||
				(e < 0) != (ep < 0) || e >= 0 && at[e] != ep {
				t.Fatalf("trial %d, node %d: trees differ under the permutation", trial, v)
			}
		}
	}
	if reused == 0 || refused == 0 {
		t.Fatalf("reused %d, refused %d: the oracle needs both outcomes", reused, refused)
	}
	t.Logf("reused %d, refused %d", reused, refused)
}

// TestReuseIntoTreeArcTailRelabelledLater reuses a tree whose arc 1->2,
// edge 0, is node 2's tree arc and is scanned first, before edge 5
// lowers node 1. The scan skips the tree arc's own direction, so only
// the settle of node 1 can relabel node 2, and it must.
func TestReuseIntoTreeArcTailRelabelledLater(t *testing.T) {
	g := New(8)
	g.MustAddEdge(1, 2, 1)
	up := g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 3, 1)
	for v := 4; v < 8; v++ {
		g.MustAddEdge(0, v, float64(v))
	}
	across := g.MustAddEdge(3, 1, 10)
	var ws DijkstraWorkspace
	var old, got ShortestPaths
	if err := ws.DijkstraInto(g, 0, &old); err != nil {
		t.Fatal(err)
	}
	if old.parentEdge[2] != 0 || old.Parent(1) != 0 {
		t.Fatal("the old tree no longer hangs node 2 off node 1 over edge 0")
	}
	if g.SetWeight(up, 10) != nil || g.SetWeight(across, 1) != nil {
		t.Fatal("SetWeight")
	}
	if !checkReuse(t, &ws, g, &old, &got) {
		t.Fatal("two relabelled nodes of eight were not reused")
	}
	if got.Parent(1) != 3 || got.Parent(2) != 1 || got.Dist[2] != 3 {
		t.Fatalf("node 2 at %v via %d; want 3 via 1", got.Dist[2], got.Parent(2))
	}
}

// TestReuseIntoSameWeights reuses a tree on the weights it was built
// under: nothing relabels, and the result certifies as the old tree.
func TestReuseIntoSameWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(rng, 30, 30)
	var ws DijkstraWorkspace
	var old, got ShortestPaths
	if err := ws.DijkstraInto(g, 4, &old); err != nil {
		t.Fatal(err)
	}
	ok, err := ws.ReuseInto(g, &old, &got)
	if err != nil || !ok {
		t.Fatalf("ReuseInto on unchanged weights = %v, %v; want ok", ok, err)
	}
	sameShortestPaths(t, &got, &old, 30)
}

// TestReuseIntoRefusesZeroWeightTreeEdge pins the verdict on a tree
// edge of weight zero, or of a weight its parent's label absorbs: its
// reverse arc ties the parent, and a tie refuses the reuse even on the
// weights the tree was built under.
func TestReuseIntoRefusesZeroWeightTreeEdge(t *testing.T) {
	for _, w := range []float64{0, 1e-17} {
		g := New(4)
		g.MustAddEdge(0, 1, 1)
		g.MustAddEdge(1, 2, 1)
		g.MustAddEdge(1, 3, w)
		var ws DijkstraWorkspace
		var old, got ShortestPaths
		if err := ws.DijkstraInto(g, 0, &old); err != nil {
			t.Fatal(err)
		}
		if old.Parent(3) != 1 || old.Dist[3] != old.Dist[1] {
			t.Fatalf("w=%v: node 3 no longer hangs off node 1 at its label", w)
		}
		if ok, err := ws.ReuseInto(g, &old, &got); ok || err != nil {
			t.Errorf("w=%v: ReuseInto = %v, %v; want a refusal", w, ok, err)
		}
	}
}

// TestReuseIntoAbandonsHeavyDamage makes the edge above a large subtree
// far heavier: more than a quarter of the nodes relabel, so the kernel
// gives up and leaves the tree to Dijkstra.
func TestReuseIntoAbandonsHeavyDamage(t *testing.T) {
	g := New(41)
	g.MustAddEdge(0, 1, 1)
	for v := 2; v < 41; v++ {
		g.MustAddEdge(v-1, v, 1+float64(v)/100)
		g.MustAddEdge(0, v, 50+float64(v)/100)
	}
	var ws DijkstraWorkspace
	var old, got ShortestPaths
	if err := ws.DijkstraInto(g, 0, &old); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(0, 1000); err != nil {
		t.Fatal(err)
	}
	ok, err := ws.ReuseInto(g, &old, &got)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a tree with every node relabelled was reused")
	}
}

// TestRepairIntoNilOldFallsBack keeps the name of the deleted repair
// kernel's test: a nil old tree, or one sized for another graph, is
// refused with an error, and the same workspace and output then serve
// the caller's fallback to DijkstraInto unharmed.
func TestRepairIntoNilOldFallsBack(t *testing.T) {
	g := lineGraph(5)
	var ws DijkstraWorkspace
	small := new(ShortestPaths)
	if err := ws.DijkstraInto(lineGraph(3), 0, small); err != nil {
		t.Fatal(err)
	}
	var want ShortestPaths
	if err := new(DijkstraWorkspace).DijkstraInto(g, 0, &want); err != nil {
		t.Fatal(err)
	}
	for name, old := range map[string]*ShortestPaths{"nil": nil, "wrong length": small} {
		var got ShortestPaths
		if ok, err := ws.ReuseInto(g, old, &got); err == nil {
			t.Errorf("%s: ReuseInto = %v, nil; want an error", name, ok)
		}
		if err := ws.DijkstraInto(g, 0, &got); err != nil {
			t.Fatal(err)
		}
		sameShortestPaths(t, &got, &want, 5)
	}
}

// TestRepairIntoEdgeOutOfRange keeps the name of the deleted repair
// kernel's test: an old tree whose parent edge lies outside g's edge
// range is refused with an error.
func TestRepairIntoEdgeOutOfRange(t *testing.T) {
	g := lineGraph(4)
	var ws DijkstraWorkspace
	for _, e := range []int32{99, int32(g.NumEdges()), -2} {
		var old, got ShortestPaths
		if err := ws.DijkstraInto(g, 0, &old); err != nil {
			t.Fatal(err)
		}
		old.parentEdge[2] = e
		if ok, err := ws.ReuseInto(g, &old, &got); err == nil {
			t.Errorf("parent edge %d: ReuseInto = %v, nil; want an error", e, ok)
		}
	}
}

// TestReuseIntoRefusesMalformedOld covers the other shapes of old tree
// that cannot belong to g: each is an error, not a fallback.
func TestReuseIntoRefusesMalformedOld(t *testing.T) {
	g := lineGraph(5)
	g.MustAddEdge(0, 2, 7)
	var ws DijkstraWorkspace
	valid := func() *ShortestPaths {
		old := new(ShortestPaths)
		if err := ws.DijkstraInto(g, 0, old); err != nil {
			t.Fatal(err)
		}
		return old
	}
	cases := map[string]*ShortestPaths{}
	for name, edit := range map[string]func(*ShortestPaths){
		"source below range":     func(o *ShortestPaths) { o.Source = -1 },
		"source above range":     func(o *ShortestPaths) { o.Source = 5 },
		"parent edge elsewhere":  func(o *ShortestPaths) { o.parentEdge[3] = 0 },
		"parent node not on it":  func(o *ShortestPaths) { o.parentNode[3] = 0 },
		"parent without edge":    func(o *ShortestPaths) { o.parentEdge[3] = -1 },
		"edge without parent":    func(o *ShortestPaths) { o.parentNode[3] = -1 },
		"depth above range":      func(o *ShortestPaths) { o.depth[2] = 5 },
		"depth below unreached":  func(o *ShortestPaths) { o.depth[2] = -2 },
		"columns of other width": func(o *ShortestPaths) { o.cols = o.cols[:9] },
	} {
		old := valid()
		edit(old)
		cases[name] = old
	}
	for name, old := range cases {
		var got ShortestPaths
		if ok, err := ws.ReuseInto(g, old, &got); err == nil {
			t.Errorf("%s: ReuseInto = %v, nil; want an error", name, ok)
		}
	}
}

// FuzzReuseInto drives the oracle of TestReuseIntoMatchesDijkstra with
// arbitrary structures and weight modes (the seed corpus runs in
// normal `go test`; `go test -fuzz=FuzzReuseInto` explores further).
func FuzzReuseInto(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(30), uint8(0), uint8(2))
	f.Add(int64(7), uint8(40), uint8(10), uint8(1), uint8(1))
	f.Add(int64(-3), uint8(5), uint8(60), uint8(2), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw, modeRaw, changesRaw uint8) {
		n := 2 + int(nRaw)%60
		rng := rand.New(rand.NewSource(seed))
		g := reuseStructure(rng, n, int(extraRaw)%(3*n))
		reweight(rng, g, int(modeRaw)%3)
		prev := g.WeightClone()
		if changesRaw >= 128 {
			reweight(rng, prev, int(modeRaw/3)%3)
		} else {
			nudge(rng, prev, int(changesRaw)%8)
		}
		var ws DijkstraWorkspace
		var old, sp ShortestPaths
		if err := ws.DijkstraInto(prev, rng.Intn(n), &old); err != nil {
			t.Fatal(err)
		}
		checkReuse(t, &ws, g, &old, &sp)
	})
}

// TestSeedTableOwnership pins which graphs share a seed table. A tree
// built on g seeds the next build from its root on every weight clone
// of g, and a clone's trees seed g in turn. Clone, CopyInto, Reset,
// AddNode and AddEdge leave a graph without seeds. A seed that
// survived CopyInto from another structure of the same size would meet
// a ReuseInto that answers with an error, so the build after the copy
// must succeed and must not see a seed.
func TestSeedTableOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40
	structure := func() *Graph {
		g := reuseStructure(rng, n, 80)
		reweight(rng, g, 0)
		return g
	}
	var ws DijkstraWorkspace
	// seeded builds g's tree at root, checks it against Dijkstra and
	// reports whether g's seed table held a seed for root.
	seeded := func(g *Graph, root NodeID) bool {
		t.Helper()
		sp, seeded, _, err := ws.SeededTree(g, root, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Dijkstra(g, root)
		if err != nil {
			t.Fatal(err)
		}
		sameShortestPaths(t, sp, want, g.NumNodes())
		return seeded
	}

	g := structure()
	if seeded(g, 0) || !seeded(g, 0) {
		t.Fatal("a new graph must start without seeds and keep the trees it builds")
	}
	w := g.WeightClone()
	nudge(rng, w, 10)
	if !seeded(w, 0) {
		t.Fatal("a weight clone must share its origin's seeds")
	}
	if seeded(w, 1) || !seeded(g, 1) {
		t.Fatal("a weight clone's trees must seed its origin")
	}
	if w2 := w.WeightClone(); !seeded(w2, 1) {
		t.Fatal("a weight clone of a weight clone must share the table")
	}

	c := g.Clone()
	if seeded(c, 0) {
		t.Fatal("Clone must start without seeds")
	}
	if seeded(c, 2) || seeded(g, 2) {
		t.Fatal("a clone's trees must not seed its origin")
	}

	// CopyInto from a different structure of the same size: g's old
	// seed for root 0 cannot belong to the copy.
	stale := g.seeds.Load().roots[0].Load()
	other := structure()
	if _, err := ws.ReuseInto(other, stale, new(ShortestPaths)); err == nil {
		t.Fatal("the fixture must show a stale seed failing ReuseInto with an error")
	}
	other.CopyInto(g)
	if seeded(g, 0) {
		t.Fatal("CopyInto must leave the destination without seeds")
	}

	seeded(g, 3)
	g.Reset(n)
	if g.seeds.Load() != nil {
		t.Fatal("Reset must leave the graph without seeds")
	}
	for _, e := range other.edges {
		g.MustAddEdge(e.U, e.V, e.W)
	}
	seeded(g, 4)
	g.MustAddEdge(0, 1, 1)
	if seeded(g, 4) {
		t.Fatal("AddEdge must leave the graph without seeds")
	}
	seeded(g, 5)
	g.AddNode()
	if seeded(g, 5) {
		t.Fatal("AddNode must leave the graph without seeds")
	}
}
