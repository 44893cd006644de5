package multicast

import (
	"errors"
	"testing"

	"nfvmcast/internal/graph"
)

// lineHost returns host graph 0-1-2-3-4 and its edge IDs.
func lineHost() (*graph.Graph, []graph.EdgeID) {
	g := graph.New(5)
	ids := make([]graph.EdgeID, 4)
	for i := 0; i < 4; i++ {
		ids[i] = g.MustAddEdge(i, i+1, 1)
	}
	return g, ids
}

func TestPseudoTreeDedupesHops(t *testing.T) {
	_, ids := lineHost()
	tr := NewPseudoTree(0, []graph.NodeID{2}, []graph.NodeID{1})
	h := Hop{From: 0, To: 1, Edge: ids[0], Processed: false}
	tr.AddHop(h)
	tr.AddHop(h)
	if tr.NumHops() != 1 {
		t.Fatalf("NumHops = %d, want 1 after duplicate insert", tr.NumHops())
	}
	// Same edge, different direction or processed flag => distinct.
	tr.AddHop(Hop{From: 1, To: 0, Edge: ids[0], Processed: false})
	tr.AddHop(Hop{From: 0, To: 1, Edge: ids[0], Processed: true})
	if tr.NumHops() != 3 {
		t.Fatalf("NumHops = %d, want 3", tr.NumHops())
	}
	if got := loadOn(tr.LinkLoads(), ids[0]); got != 3 {
		t.Fatalf("load on edge 0 = %d, want 3", got)
	}
}

// loadOn returns e's traversal count in loads, or 0.
func loadOn(loads []EdgeLoad, e graph.EdgeID) int {
	for _, l := range loads {
		if l.Edge == e {
			return l.Uses
		}
	}
	return 0
}

// TestLinkLoadsSortedOnePerEdge: hops added out of edge order come back
// as one entry per edge, ascending, with every traversal counted.
func TestLinkLoadsSortedOnePerEdge(t *testing.T) {
	_, ids := lineHost()
	tr := NewPseudoTree(0, []graph.NodeID{1, 4}, []graph.NodeID{2})
	tr.AddHop(Hop{From: 3, To: 4, Edge: ids[3], Processed: true})
	tr.AddHop(Hop{From: 0, To: 1, Edge: ids[0], Processed: false})
	tr.AddHop(Hop{From: 2, To: 1, Edge: ids[1], Processed: true})
	tr.AddHop(Hop{From: 1, To: 2, Edge: ids[1], Processed: false})
	tr.AddHop(Hop{From: 2, To: 3, Edge: ids[2], Processed: true})
	got := tr.LinkLoads()
	want := []EdgeLoad{{ids[0], 1}, {ids[1], 2}, {ids[2], 1}, {ids[3], 1}}
	if len(got) != len(want) {
		t.Fatalf("LinkLoads = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LinkLoads = %v, want %v", got, want)
		}
	}
	if empty := NewPseudoTree(0, nil, nil).LinkLoads(); len(empty) != 0 {
		t.Fatalf("empty tree LinkLoads = %v", empty)
	}
}

func TestPseudoTreeAddPath(t *testing.T) {
	_, ids := lineHost()
	tr := NewPseudoTree(0, []graph.NodeID{2}, []graph.NodeID{1})
	if err := tr.AddPath([]graph.NodeID{0, 1, 2}, ids[:2], false); err != nil {
		t.Fatal(err)
	}
	if tr.NumHops() != 2 {
		t.Fatalf("NumHops = %d, want 2", tr.NumHops())
	}
	if err := tr.AddPath([]graph.NodeID{0, 1}, ids[:2], false); err == nil {
		t.Fatal("mismatched path shape accepted")
	}
}

func TestCheckDeliveryHappyPath(t *testing.T) {
	g, ids := lineHost()
	// Source 0, server 2, destinations {1, 4}: unprocessed 0->1->2,
	// processed back 2->1 and forward 2->3->4.
	tr := NewPseudoTree(0, []graph.NodeID{1, 4}, []graph.NodeID{2})
	tr.AddHop(Hop{From: 0, To: 1, Edge: ids[0], Processed: false})
	tr.AddHop(Hop{From: 1, To: 2, Edge: ids[1], Processed: false})
	tr.AddHop(Hop{From: 2, To: 1, Edge: ids[1], Processed: true})
	tr.AddHop(Hop{From: 2, To: 3, Edge: ids[2], Processed: true})
	tr.AddHop(Hop{From: 3, To: 4, Edge: ids[3], Processed: true})
	if err := tr.CheckDelivery(g); err != nil {
		t.Fatal(err)
	}
	if got := loadOn(tr.LinkLoads(), ids[1]); got != 2 {
		t.Fatalf("back-tracked link load = %d, want 2", got)
	}
}

func TestCheckDeliveryFailsWithoutProcessing(t *testing.T) {
	g, ids := lineHost()
	// Destination receives only unprocessed traffic.
	tr := NewPseudoTree(0, []graph.NodeID{1}, []graph.NodeID{4})
	tr.AddHop(Hop{From: 0, To: 1, Edge: ids[0], Processed: false})
	if err := tr.CheckDelivery(g); !errors.Is(err, ErrUndelivered) {
		t.Fatalf("err = %v, want ErrUndelivered", err)
	}
}

func TestCheckDeliveryFailsWhenServerDownstreamOfDest(t *testing.T) {
	g, ids := lineHost()
	// Server at 2 but destination 1 only sees the unprocessed stream
	// passing through: no processed hop back to 1.
	tr := NewPseudoTree(0, []graph.NodeID{1}, []graph.NodeID{2})
	tr.AddHop(Hop{From: 0, To: 1, Edge: ids[0], Processed: false})
	tr.AddHop(Hop{From: 1, To: 2, Edge: ids[1], Processed: false})
	if err := tr.CheckDelivery(g); !errors.Is(err, ErrUndelivered) {
		t.Fatalf("err = %v, want ErrUndelivered", err)
	}
	// Adding the back-track fixes it.
	tr.AddHop(Hop{From: 2, To: 1, Edge: ids[1], Processed: true})
	if err := tr.CheckDelivery(g); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDeliveryNoServer(t *testing.T) {
	g, _ := lineHost()
	tr := NewPseudoTree(0, []graph.NodeID{1}, nil)
	if err := tr.CheckDelivery(g); !errors.Is(err, ErrNoServer) {
		t.Fatalf("err = %v, want ErrNoServer", err)
	}
}

func TestCheckDeliveryRejectsBogusHop(t *testing.T) {
	g, ids := lineHost()
	tr := NewPseudoTree(0, []graph.NodeID{1}, []graph.NodeID{0})
	// Hop claims edge ids[2] (2-3) joins 0 and 1.
	tr.AddHop(Hop{From: 0, To: 1, Edge: ids[2], Processed: true})
	if err := tr.CheckDelivery(g); err == nil {
		t.Fatal("bogus hop accepted")
	}
}

func TestCheckDeliverySourceIsServer(t *testing.T) {
	g, ids := lineHost()
	tr := NewPseudoTree(0, []graph.NodeID{1}, []graph.NodeID{0})
	tr.AddHop(Hop{From: 0, To: 1, Edge: ids[0], Processed: true})
	if err := tr.CheckDelivery(g); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDeliveryDestinationIsServer(t *testing.T) {
	g, ids := lineHost()
	// Destination 2 is itself the serving node.
	tr := NewPseudoTree(0, []graph.NodeID{2}, []graph.NodeID{2})
	tr.AddHop(Hop{From: 0, To: 1, Edge: ids[0], Processed: false})
	tr.AddHop(Hop{From: 1, To: 2, Edge: ids[1], Processed: false})
	if err := tr.CheckDelivery(g); err != nil {
		t.Fatal(err)
	}
}

func TestUsedNodes(t *testing.T) {
	_, ids := lineHost()
	tr := NewPseudoTree(0, []graph.NodeID{3}, []graph.NodeID{2})
	tr.AddHop(Hop{From: 0, To: 1, Edge: ids[0], Processed: false})
	nodes := tr.UsedNodes()
	want := map[graph.NodeID]bool{0: true, 1: true, 2: true, 3: true}
	if len(nodes) != len(want) {
		t.Fatalf("UsedNodes = %v, want %v", nodes, want)
	}
	for _, v := range nodes {
		if !want[v] {
			t.Fatalf("unexpected node %d in %v", v, nodes)
		}
	}
}

func TestHopsReturnsCopy(t *testing.T) {
	_, ids := lineHost()
	tr := NewPseudoTree(0, []graph.NodeID{1}, []graph.NodeID{2})
	tr.AddHop(Hop{From: 0, To: 1, Edge: ids[0], Processed: false})
	hops := tr.Hops()
	hops[0].From = 99
	if tr.Hops()[0].From != 0 {
		t.Fatal("Hops() exposes internal state")
	}
}
