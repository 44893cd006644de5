package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMSTSquareWithDiagonal(t *testing.T) {
	// Square 0-1-2-3 with unit sides and a heavy diagonal.
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 0, 4)
	g.MustAddEdge(0, 2, 5)
	for name, f := range map[string]func(*Graph) (*MST, error){
		"kruskal": KruskalMST,
		"prim":    PrimMST,
	} {
		mst, err := f(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mst.Weight != 3 {
			t.Fatalf("%s weight = %v, want 3", name, mst.Weight)
		}
		if len(mst.EdgeIDs) != 3 {
			t.Fatalf("%s edges = %d, want 3", name, len(mst.EdgeIDs))
		}
	}
}

func TestMSTDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if _, err := KruskalMST(g); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Kruskal on disconnected = %v, want ErrDisconnected", err)
	}
	if _, err := PrimMST(g); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Prim on disconnected = %v, want ErrDisconnected", err)
	}
}

func TestMSTEmptyAndSingle(t *testing.T) {
	for _, n := range []int{0, 1} {
		g := New(n)
		mst, err := PrimMST(g)
		if err != nil {
			t.Fatalf("Prim(n=%d): %v", n, err)
		}
		if mst.Weight != 0 || len(mst.EdgeIDs) != 0 {
			t.Fatalf("Prim(n=%d) = %+v, want empty", n, mst)
		}
	}
}

func TestMSTParallelEdgesUsesCheapest(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 5)
	cheap := g.MustAddEdge(0, 1, 1)
	mst, err := KruskalMST(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(mst.EdgeIDs) != 1 || mst.EdgeIDs[0] != cheap {
		t.Fatalf("MST edges = %v, want [%d]", mst.EdgeIDs, cheap)
	}
}

func TestPropertyPrimEqualsKruskal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 2+rng.Intn(30), rng.Intn(60))
		k, kerr := KruskalMST(g)
		p, perr := PrimMST(g)
		if kerr != nil || perr != nil {
			return false
		}
		return math.Abs(k.Weight-p.Weight) < 1e-9 &&
			len(k.EdgeIDs) == g.NumNodes()-1 &&
			len(p.EdgeIDs) == g.NumNodes()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMSTIsSpanningAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 2+rng.Intn(30), rng.Intn(60))
		mst, err := PrimMST(g)
		if err != nil {
			return false
		}
		dsu := NewDisjointSet(g.NumNodes())
		for _, id := range mst.EdgeIDs {
			e := g.Edge(id)
			if !dsu.Union(e.U, e.V) {
				return false // cycle
			}
		}
		return dsu.Count() == 1 // spanning
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDisjointSetBasics(t *testing.T) {
	d := NewDisjointSet(5)
	if d.Count() != 5 {
		t.Fatalf("Count = %d, want 5", d.Count())
	}
	if !d.Union(0, 1) {
		t.Fatal("first Union(0,1) should merge")
	}
	if d.Union(0, 1) {
		t.Fatal("second Union(0,1) should be a no-op")
	}
	if !d.Connected(0, 1) {
		t.Fatal("0 and 1 should be connected")
	}
	if d.Connected(0, 2) {
		t.Fatal("0 and 2 should not be connected")
	}
	d.Union(2, 3)
	d.Union(1, 3)
	if !d.Connected(0, 2) {
		t.Fatal("0 and 2 should be connected after transitive unions")
	}
	if d.Count() != 2 {
		t.Fatalf("Count = %d, want 2", d.Count())
	}
}

func TestPropertyDSUTransitivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		d := NewDisjointSet(n)
		// Apply random unions, then check against a naive labeling.
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		relabel := func(from, to int) {
			for i := range labels {
				if labels[i] == from {
					labels[i] = to
				}
			}
		}
		for i := 0; i < n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			d.Union(a, b)
			relabel(labels[a], labels[b])
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if d.Connected(a, b) != (labels[a] == labels[b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPrimUniqueFlag(t *testing.T) {
	square := func(w0, w1, w2, w3 float64) *Graph {
		g := New(4)
		g.MustAddEdge(0, 1, w0)
		g.MustAddEdge(1, 2, w1)
		g.MustAddEdge(2, 3, w2)
		g.MustAddEdge(3, 0, w3)
		return g
	}
	parallel := New(2)
	parallel.MustAddEdge(0, 1, 2)
	parallel.MustAddEdge(0, 1, 2)
	for name, tc := range map[string]struct {
		g    *Graph
		want bool
	}{
		"tied square":     {square(1, 1, 1, 1), false},
		"distinct square": {square(1, 2, 3, 4), true},
		"tied heaviest":   {square(1, 2, 3, 3), false}, // either 3 closes the tree
		"tied lightest":   {square(1, 1, 2, 3), true},  // both 1s are in every tree
		"parallel tie":    {parallel, false},
		"single node":     {New(1), true},
	} {
		var ws MSTWorkspace
		var mst MST
		if err := ws.Prim(tc.g, &mst); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mst.Unique != tc.want {
			t.Errorf("%s: Unique = %v, want %v", name, mst.Unique, tc.want)
		}
	}
	// A stale true from an earlier run must not survive a Kruskal or a
	// disconnected Prim into the same result.
	var ws MSTWorkspace
	var mst MST
	if err := ws.Prim(square(1, 2, 3, 4), &mst); err != nil || !mst.Unique {
		t.Fatalf("distinct square: Unique = %v, err = %v", mst.Unique, err)
	}
	if err := ws.Kruskal(square(1, 2, 3, 4), &mst); err != nil || mst.Unique {
		t.Fatalf("Kruskal: Unique = %v, err = %v; want false, nil", mst.Unique, err)
	}
	split := New(3)
	split.MustAddEdge(0, 1, 1)
	if err := ws.Prim(split, &mst); !errors.Is(err, ErrDisconnected) || mst.Unique {
		t.Fatalf("disconnected Prim: Unique = %v, err = %v", mst.Unique, err)
	}
}

// TestPropertyPrimUniqueIsSound checks the flag against the textbook
// criterion on small graphs with weights in {1, 2, 3}: a spanning tree
// is the only MST iff every non-tree edge is strictly heavier than
// every tree edge on the path between its endpoints. A certified tree
// must pass; with all weights distinct the flag must be set.
func TestPropertyPrimUniqueIsSound(t *testing.T) {
	var certified, tied int
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		distinct := seed%4 == 0
		g := New(n)
		for v := 1; v < n; v++ { // a random spanning tree keeps g connected
			g.MustAddEdge(rng.Intn(v), v, 0)
		}
		for extra := rng.Intn(2 * n); extra > 0; extra-- {
			g.MustAddEdge(rng.Intn(n), rng.Intn(n), 0)
		}
		for id := 0; id < g.NumEdges(); id++ {
			w := float64(1 + rng.Intn(3))
			if distinct {
				w = float64(id) + rng.Float64()/2
			}
			if err := g.SetWeight(id, w); err != nil {
				t.Fatal(err)
			}
		}
		var ws MSTWorkspace
		var mst MST
		if err := ws.Prim(g, &mst); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if distinct && !mst.Unique {
			t.Fatalf("seed %d: distinct weights, Unique = false", seed)
		}
		if !mst.Unique {
			tied++
			continue
		}
		certified++
		inTree := make(map[EdgeID]bool, len(mst.EdgeIDs))
		adj := make([][]EdgeID, n)
		for _, id := range mst.EdgeIDs {
			inTree[id] = true
			e := g.Edge(id)
			adj[e.U] = append(adj[e.U], id)
			adj[e.V] = append(adj[e.V], id)
		}
		// pathMax is the heaviest tree edge between u and v.
		var pathMax func(u, target, from NodeID) (float64, bool)
		pathMax = func(u, target, from NodeID) (float64, bool) {
			if u == target {
				return math.Inf(-1), true
			}
			for _, id := range adj[u] {
				e := g.Edge(id)
				next := e.U + e.V - u
				if next == from {
					continue
				}
				if m, ok := pathMax(next, target, u); ok {
					return math.Max(m, e.W), true
				}
			}
			return 0, false
		}
		for id := 0; id < g.NumEdges(); id++ {
			e := g.Edge(id)
			if inTree[id] || e.U == e.V {
				continue
			}
			if m, _ := pathMax(e.U, e.V, -1); !(e.W > m) {
				t.Fatalf("seed %d: certified unique, but non-tree edge %d (w=%v) ties its path max %v",
					seed, id, e.W, m)
			}
		}
	}
	if certified == 0 || tied == 0 {
		t.Fatalf("grid too easy: %d certified, %d not", certified, tied)
	}
}
