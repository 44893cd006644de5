package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkSteinerTree verifies the structural invariants of a Steiner
// tree: acyclic, connected over its node set, spans all terminals, and
// every leaf is a terminal.
func checkSteinerTree(t *testing.T, g *Graph, st *SteinerTree, terminals []NodeID) {
	t.Helper()
	dsu := NewDisjointSet(g.NumNodes())
	deg := make(map[NodeID]int)
	for _, id := range st.EdgeIDs {
		e := g.Edge(id)
		if !dsu.Union(e.U, e.V) {
			t.Fatalf("steiner tree has a cycle through edge %d {%d,%d}", id, e.U, e.V)
		}
		deg[e.U]++
		deg[e.V]++
	}
	root := terminals[0]
	for _, term := range terminals[1:] {
		if !dsu.Connected(root, term) {
			t.Fatalf("terminals %d and %d not connected in steiner tree", root, term)
		}
	}
	isTerm := make(map[NodeID]struct{}, len(terminals))
	for _, term := range terminals {
		isTerm[term] = struct{}{}
	}
	for v, d := range deg {
		if d == 1 {
			if _, ok := isTerm[v]; !ok {
				t.Fatalf("non-terminal leaf %d in steiner tree", v)
			}
		}
	}
}

func TestSteinerSingleTerminal(t *testing.T) {
	g := lineGraph(4)
	st, err := SteinerKMB(g, []NodeID{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.EdgeIDs) != 0 || st.Weight != 0 {
		t.Fatalf("single-terminal tree = %+v, want empty", st)
	}
	nodes := st.Nodes(g)
	if len(nodes) != 1 || nodes[0] != 2 {
		t.Fatalf("Nodes = %v, want [2]", nodes)
	}
}

func TestSteinerTwoTerminalsIsShortestPath(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 3, 5)
	g.MustAddEdge(3, 2, 5)
	st, err := SteinerKMB(g, []NodeID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Weight != 2 {
		t.Fatalf("weight = %v, want 2 (shortest path)", st.Weight)
	}
	checkSteinerTree(t, g, st, []NodeID{0, 2})
}

func TestSteinerStar(t *testing.T) {
	// Star: center 0, leaves 1..4, all weight 1. Terminals = leaves.
	g := New(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(0, v, 1)
	}
	st, err := SteinerKMB(g, []NodeID{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Weight != 4 {
		t.Fatalf("weight = %v, want 4", st.Weight)
	}
	checkSteinerTree(t, g, st, []NodeID{1, 2, 3, 4})
}

func TestSteinerDuplicateTerminals(t *testing.T) {
	g := lineGraph(3)
	st, err := SteinerKMB(g, []NodeID{0, 2, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Weight != 2 {
		t.Fatalf("weight = %v, want 2", st.Weight)
	}
	if len(st.Terminals) != 2 {
		t.Fatalf("deduped terminals = %v, want 2 entries", st.Terminals)
	}
}

func TestSteinerDisconnectedTerminals(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if _, err := SteinerKMB(g, []NodeID{0, 3}); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("SteinerKMB across components = %v, want ErrDisconnected", err)
	}
}

func TestSteinerTerminalOutOfRange(t *testing.T) {
	g := lineGraph(3)
	if _, err := SteinerKMB(g, []NodeID{0, 9}); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("SteinerKMB(bad terminal) = %v, want ErrNodeOutOfRange", err)
	}
}

func TestSteinerBenefitsFromSteinerPoint(t *testing.T) {
	// Three terminals around a hub: pairwise shortest paths run
	// through the hub (2 < 2.5), so KMB's expansion contains the
	// spokes and the pruned tree uses the Steiner point.
	g := New(4)
	g.MustAddEdge(3, 0, 1)
	g.MustAddEdge(3, 1, 1)
	g.MustAddEdge(3, 2, 1)
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(1, 2, 2.5)
	g.MustAddEdge(0, 2, 2.5)
	st, err := SteinerKMB(g, []NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Weight > 3+1e-9 {
		t.Fatalf("weight = %v, want 3 (via steiner point)", st.Weight)
	}
	checkSteinerTree(t, g, st, []NodeID{0, 1, 2})
}

func TestPropertySteinerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 4+rng.Intn(25), rng.Intn(50))
		n := g.NumNodes()
		nt := 2 + rng.Intn(min(6, n-1))
		perm := rng.Perm(n)
		terminals := perm[:nt]
		st, err := SteinerKMB(g, terminals)
		if err != nil {
			return false
		}
		// Structural invariants.
		dsu := NewDisjointSet(n)
		for _, id := range st.EdgeIDs {
			e := g.Edge(id)
			if !dsu.Union(e.U, e.V) {
				return false
			}
		}
		for _, term := range terminals[1:] {
			if !dsu.Connected(terminals[0], term) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySteinerApproximationBound checks the KMB guarantee
// against a lower bound: the optimal Steiner tree costs at least half
// the metric-closure MST, so the KMB output (<= closure MST) is within
// 2x of optimum; here we verify the computable relation
// weight(KMB) <= weight(closure MST).
func TestPropertySteinerApproximationBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 4+rng.Intn(20), rng.Intn(40))
		n := g.NumNodes()
		nt := 2 + rng.Intn(min(5, n-1))
		terminals := rng.Perm(n)[:nt]
		st, err := SteinerKMB(g, terminals)
		if err != nil {
			return false
		}
		// Closure MST weight.
		closure := New(nt)
		for i := 0; i < nt; i++ {
			sp, err := Dijkstra(g, terminals[i])
			if err != nil {
				return false
			}
			for j := i + 1; j < nt; j++ {
				closure.MustAddEdge(i, j, sp.Dist[terminals[j]])
			}
		}
		mst, err := PrimMST(closure)
		if err != nil {
			return false
		}
		return st.Weight <= mst.Weight+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSteinerNodesIncludesSteinerPoints: Nodes lists the terminals and
// the Steiner point, ascending and each once, whatever the terminal
// order.
func TestSteinerNodesIncludesSteinerPoints(t *testing.T) {
	g := New(4)
	g.MustAddEdge(3, 0, 1)
	g.MustAddEdge(3, 1, 1)
	g.MustAddEdge(3, 2, 1)
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(1, 2, 2.5)
	g.MustAddEdge(0, 2, 2.5)
	st, err := SteinerKMB(g, []NodeID{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	nodes := st.Nodes(g)
	found := false
	for i, v := range nodes {
		if v == 3 {
			found = true
		}
		if i > 0 && nodes[i-1] >= v {
			t.Fatalf("Nodes() = %v, want ascending and unique", nodes)
		}
	}
	if !found {
		t.Fatalf("Nodes() = %v missing steiner point 3", nodes)
	}
}
