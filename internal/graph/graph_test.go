package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmptyGraph(t *testing.T) {
	g := New(5)
	if got := g.NumNodes(); got != 5 {
		t.Fatalf("NumNodes() = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 0 {
		t.Fatalf("NumEdges() = %d, want 0", got)
	}
	if g.TotalWeight() != 0 {
		t.Fatalf("TotalWeight() = %v, want 0", g.TotalWeight())
	}
}

func TestNewNegativeClampedToZero(t *testing.T) {
	g := New(-3)
	if got := g.NumNodes(); got != 0 {
		t.Fatalf("NumNodes() = %d, want 0", got)
	}
}

func TestAddNode(t *testing.T) {
	g := New(2)
	id := g.AddNode()
	if id != 2 {
		t.Fatalf("AddNode() = %d, want 2", id)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes() = %d, want 3", g.NumNodes())
	}
	if _, err := g.AddEdge(0, id, 1); err != nil {
		t.Fatalf("AddEdge to fresh node: %v", err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    NodeID
		w       float64
		wantErr error
	}{
		{name: "u out of range", u: -1, v: 0, w: 1, wantErr: ErrNodeOutOfRange},
		{name: "v out of range", u: 0, v: 3, w: 1, wantErr: ErrNodeOutOfRange},
		{name: "negative weight", u: 0, v: 1, w: -0.5, wantErr: ErrNegativeWeight},
		{name: "valid", u: 0, v: 1, w: 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := g.AddEdge(tt.u, tt.v, tt.w)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("AddEdge(%d,%d,%v) = %v, want nil", tt.u, tt.v, tt.w, err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("AddEdge(%d,%d,%v) = %v, want %v", tt.u, tt.v, tt.w, err, tt.wantErr)
			}
		})
	}
}

func TestEdgeAccessors(t *testing.T) {
	g := New(4)
	id := g.MustAddEdge(1, 3, 2.5)
	e := g.Edge(id)
	if e.U != 1 || e.V != 3 || e.W != 2.5 {
		t.Fatalf("Edge(%d) = %+v, want {1 3 2.5}", id, e)
	}
	if got := g.Weight(id); got != 2.5 {
		t.Fatalf("Weight(%d) = %v, want 2.5", id, got)
	}
	if got := g.Degree(1); got != 1 {
		t.Fatalf("Degree(1) = %d, want 1", got)
	}
	if got := g.Degree(0); got != 0 {
		t.Fatalf("Degree(0) = %d, want 0", got)
	}
}

func TestSetWeight(t *testing.T) {
	g := New(2)
	id := g.MustAddEdge(0, 1, 5)
	if err := g.SetWeight(id, 1.5); err != nil {
		t.Fatalf("SetWeight: %v", err)
	}
	if got := g.Weight(id); got != 1.5 {
		t.Fatalf("Weight after SetWeight = %v, want 1.5", got)
	}
	if err := g.SetWeight(id, -1); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("SetWeight(-1) = %v, want ErrNegativeWeight", err)
	}
	if err := g.SetWeight(99, 1); err == nil {
		t.Fatal("SetWeight(out-of-range) = nil, want error")
	}
	// Weight changes must be visible through adjacency.
	g.VisitNeighbors(0, func(_ NodeID, _ EdgeID, w float64) bool {
		if w != 1.5 {
			t.Fatalf("neighbor weight = %v, want 1.5", w)
		}
		return true
	})
}

func TestNeighbors(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 2)
	ns := g.Neighbors(0)
	if len(ns) != 2 {
		t.Fatalf("len(Neighbors(0)) = %d, want 2", len(ns))
	}
	seen := map[NodeID]float64{}
	for _, n := range ns {
		seen[n.Node] = n.Weight
	}
	if seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("Neighbors(0) = %v, want nodes 1(w=1) and 2(w=2)", ns)
	}
}

func TestVisitNeighborsEarlyStop(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	count := 0
	g.VisitNeighbors(0, func(NodeID, EdgeID, float64) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early-stop visited %d neighbors, want 1", count)
	}
}

func TestHasEdgeBetween(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	if !g.HasEdgeBetween(0, 1) || !g.HasEdgeBetween(1, 0) {
		t.Fatal("HasEdgeBetween(0,1) should hold both ways")
	}
	if g.HasEdgeBetween(0, 2) {
		t.Fatal("HasEdgeBetween(0,2) should be false")
	}
	if g.HasEdgeBetween(-1, 2) || g.HasEdgeBetween(0, 9) {
		t.Fatal("out-of-range HasEdgeBetween should be false")
	}
}

func TestEdgeBetweenPicksMinWeightParallel(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 5)
	want := g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 1, 7)
	id, ok := g.EdgeBetween(0, 1)
	if !ok || id != want {
		t.Fatalf("EdgeBetween = (%d,%v), want (%d,true)", id, ok, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	id := g.MustAddEdge(0, 1, 1)
	c := g.Clone()
	if err := c.SetWeight(id, 9); err != nil {
		t.Fatalf("SetWeight on clone: %v", err)
	}
	if g.Weight(id) != 1 {
		t.Fatalf("original weight changed to %v after clone edit", g.Weight(id))
	}
	c.AddNode()
	if g.NumNodes() != 3 {
		t.Fatalf("original node count changed to %d after clone edit", g.NumNodes())
	}
}

func TestSelfLoopDoesNotDuplicateAdjacency(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 0, 1)
	if got := g.Degree(0); got != 1 {
		t.Fatalf("Degree(0) with self-loop = %d, want 1", got)
	}
}

func TestEdgesReturnsCopy(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 1)
	es := g.Edges()
	es[0].W = 99
	if g.Weight(0) != 1 {
		t.Fatal("mutating Edges() result affected the graph")
	}
}

// randomConnectedGraph builds a connected random graph for property
// tests: a random spanning tree plus extra random edges.
func randomConnectedGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.MustAddEdge(u, v, rng.Float64()*10)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, rng.Float64()*10)
		}
	}
	return g
}

func TestPropertyTotalWeightMatchesEdgeSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 2+rng.Intn(20), rng.Intn(30))
		var sum float64
		for _, e := range g.Edges() {
			sum += e.W
		}
		return sum == g.TotalWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDegreeSumTwiceEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 2+rng.Intn(20), rng.Intn(30))
		sum := 0
		for v := 0; v < g.NumNodes(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMustAddEdgePanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddEdge with bad nodes should panic")
		}
	}()
	g.MustAddEdge(0, 9, 1)
}

func TestEdgeBetweenOutOfRange(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 1)
	if _, ok := g.EdgeBetween(-1, 0); ok {
		t.Fatal("negative node accepted")
	}
	if _, ok := g.EdgeBetween(0, 5); ok {
		t.Fatal("out-of-range node accepted")
	}
}

func TestIndexedHeapContains(t *testing.T) {
	h := newIndexedHeap(3)
	if h.Contains(1) {
		t.Fatal("empty heap contains node")
	}
	h.PushOrDecrease(1, 5)
	if !h.Contains(1) {
		t.Fatal("pushed node missing")
	}
	// Pushing a HIGHER priority is a no-op; an equal one is a tie.
	if changed, tie := h.PushOrDecrease(1, 9); changed || tie {
		t.Fatalf("increase reported as (changed %v, tie %v)", changed, tie)
	}
	if changed, tie := h.PushOrDecrease(1, 5); changed || !tie {
		t.Fatalf("equal offer reported as (changed %v, tie %v), want (false, true)", changed, tie)
	}
	v, p := h.Pop()
	if v != 1 || p != 5 {
		t.Fatalf("Pop = (%d, %v), want (1, 5)", v, p)
	}
	if h.Contains(1) {
		t.Fatal("popped node still contained")
	}
}
