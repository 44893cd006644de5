package sdn

import (
	"errors"
	"testing"

	"nfvmcast/internal/graph"
)

func TestLinkFailureBlocksAllocation(t *testing.T) {
	nw := testNet(t, 30, 5)
	if !nw.LinkUp(0) {
		t.Fatal("fresh link should be up")
	}
	if err := nw.SetLinkUp(0, false); err != nil {
		t.Fatal(err)
	}
	if nw.LinkUp(0) {
		t.Fatal("link still up after failure")
	}
	err := nw.Allocate(Allocation{Links: []LinkShare{{Edge: 0, Mbps: 10}}})
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("allocate on down link = %v, want ErrLinkDown", err)
	}
	if err := nw.SetLinkUp(0, true); err != nil {
		t.Fatal(err)
	}
	if err := nw.Allocate(Allocation{Links: []LinkShare{{Edge: 0, Mbps: 10}}}); err != nil {
		t.Fatalf("allocate after repair: %v", err)
	}
	if err := nw.SetLinkUp(9999, false); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}

func TestServerFailureBlocksAllocation(t *testing.T) {
	nw := testNet(t, 30, 5)
	v := nw.Servers()[0]
	if !nw.ServerUp(v) {
		t.Fatal("fresh server should be up")
	}
	if err := nw.SetServerUp(v, false); err != nil {
		t.Fatal(err)
	}
	err := nw.Allocate(Allocation{Servers: []ServerShare{{Node: v, MHz: 10}}})
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("allocate on down server = %v, want ErrServerDown", err)
	}
	if err := nw.SetServerUp(v, true); err != nil {
		t.Fatal(err)
	}
	if err := nw.Allocate(Allocation{Servers: []ServerShare{{Node: v, MHz: 10}}}); err != nil {
		t.Fatalf("allocate after repair: %v", err)
	}
	// Non-server node cannot be failed.
	nonServer := graph.NodeID(-1)
	for u := 0; u < nw.NumNodes(); u++ {
		if !nw.IsServer(u) {
			nonServer = u
			break
		}
	}
	if err := nw.SetServerUp(nonServer, false); err == nil {
		t.Fatal("failing a non-server accepted")
	}
	if nw.ServerUp(nonServer) {
		t.Fatal("non-server reported as up server")
	}
}

func TestDownLinksAndAffectedBy(t *testing.T) {
	nw := testNet(t, 30, 5)
	if got := nw.DownLinks(); len(got) != 0 {
		t.Fatalf("fresh network has down links: %v", got)
	}
	if err := nw.SetLinkUp(3, false); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLinkUp(1, false); err != nil {
		t.Fatal(err)
	}
	got := nw.DownLinks()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("DownLinks = %v, want [1 3]", got)
	}
	v := nw.Servers()[0]
	alloc := Allocation{
		Links:   []LinkShare{{Edge: 0, Mbps: 5}, {Edge: 3, Mbps: 5}},
		Servers: []ServerShare{{Node: v, MHz: 5}},
	}
	if !nw.AffectedBy(alloc) {
		t.Fatal("allocation over down link not reported as affected")
	}
	clean := Allocation{Links: []LinkShare{{Edge: 0, Mbps: 5}}}
	if nw.AffectedBy(clean) {
		t.Fatal("clean allocation reported as affected")
	}
	if err := nw.SetServerUp(v, false); err != nil {
		t.Fatal(err)
	}
	if !nw.AffectedBy(Allocation{Servers: []ServerShare{{Node: v, MHz: 1}}}) {
		t.Fatal("allocation on down server not reported as affected")
	}
}

func TestCloneCarriesFailureState(t *testing.T) {
	nw := testNet(t, 30, 5)
	if err := nw.SetLinkUp(2, false); err != nil {
		t.Fatal(err)
	}
	v := nw.Servers()[0]
	if err := nw.SetServerUp(v, false); err != nil {
		t.Fatal(err)
	}
	cp := nw.Clone()
	if cp.LinkUp(2) || cp.ServerUp(v) {
		t.Fatal("clone lost failure state")
	}
	// Repairing the clone must not repair the original.
	if err := cp.SetLinkUp(2, true); err != nil {
		t.Fatal(err)
	}
	if nw.LinkUp(2) {
		t.Fatal("clone repair leaked to original")
	}
}
