package sdn

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"nfvmcast/internal/graph"
)

// collectChanges drains the journal window (from, current] into sorted,
// deduplicated link and server ID sets.
func collectChanges(t *testing.T, nw *Network, from uint64) (links, servers []int32, ok bool) {
	t.Helper()
	links, servers, ok = nw.ResidualChangesSince(from, nil, nil)
	if !ok {
		return nil, nil, false
	}
	sortDedup := func(s []int32) []int32 {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out := s[:0]
		for i, v := range s {
			if i == 0 || v != s[i-1] {
				out = append(out, v)
			}
		}
		return out
	}
	return sortDedup(links), sortDedup(servers), true
}

// TestResidualChangesSingleAllocation: one Allocate, one Release and
// one resize are one epoch each, and the raw journal window of each
// names every touched link and server exactly once. A bundle that
// repeats an ID is refused before it marks or bumps anything.
func TestResidualChangesSingleAllocation(t *testing.T) {
	nw := testNet(t, 40, 7)
	srv := nw.Servers()[0]
	a := Allocation{
		Links:   []LinkShare{{Edge: 0, Mbps: 10}, {Edge: 3, Mbps: 10}, {Edge: 5, Mbps: 10}},
		Servers: []ServerShare{{Node: srv, MHz: 100}},
	}
	// epoch runs one mutator and checks its raw window against the
	// expected link and server IDs, repeats included.
	epoch := func(what string, mutate func() error, wantLinks, wantSrvs []int32) {
		t.Helper()
		from := nw.MutationVersion()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := nw.MutationVersion() - from; got != 1 {
			t.Fatalf("%s bumped %d versions, want 1", what, got)
		}
		links, servers, ok := nw.ResidualChangesSince(from, nil, nil)
		if !ok {
			t.Fatalf("%s: window within history answered ok=false", what)
		}
		if !slices.Equal(links, wantLinks) || !slices.Equal(servers, wantSrvs) {
			t.Fatalf("%s: window = %v/%v, want %v/%v", what, links, servers, wantLinks, wantSrvs)
		}
	}
	epoch("allocate", func() error { return nw.Allocate(a) }, []int32{0, 3, 5}, []int32{int32(srv)})
	epoch("release", func() error { return nw.Release(a) }, []int32{0, 3, 5}, []int32{int32(srv)})
	epoch("resize", func() error { return nw.SetBandwidthCap(3, nw.BandwidthCap(3)*2) }, []int32{3}, nil)

	from := nw.MutationVersion()
	for _, dup := range []Allocation{
		{Links: []LinkShare{{Edge: 3, Mbps: 1}, {Edge: 3, Mbps: 1}}},
		{Servers: []ServerShare{{Node: srv, MHz: 1}, {Node: srv, MHz: 1}}},
	} {
		if err := nw.Allocate(dup); !errors.Is(err, ErrMalformedAllocation) {
			t.Fatalf("Allocate(%v) = %v, want ErrMalformedAllocation", dup, err)
		}
		if err := nw.Release(dup); !errors.Is(err, ErrMalformedAllocation) {
			t.Fatalf("Release(%v) = %v, want ErrMalformedAllocation", dup, err)
		}
	}
	if got := nw.MutationVersion(); got != from {
		t.Fatalf("refused bundles moved MutationVersion %d -> %d", from, got)
	}
	links, servers, ok := nw.ResidualChangesSince(from-1, nil, nil)
	if !ok || !slices.Equal(links, []int32{3}) || len(servers) != 0 {
		t.Fatalf("newest entry after refusals = %v/%v ok=%v, want the resize's [3]", links, servers, ok)
	}
	// Nothing the refusals did leaks into the next epoch's entry.
	epoch("allocate after refusals", func() error { return nw.Allocate(a) }, []int32{0, 3, 5}, []int32{int32(srv)})
}

func TestResidualChangesEmptyWindow(t *testing.T) {
	nw := testNet(t, 20, 9)
	links, servers, ok := nw.ResidualChangesSince(nw.MutationVersion(), nil, nil)
	if !ok || links != nil || servers != nil {
		t.Fatalf("empty window: links=%v servers=%v ok=%v", links, servers, ok)
	}
	// A from ahead of the current version is a caller bug; refuse.
	if _, _, ok := nw.ResidualChangesSince(nw.MutationVersion()+1, nil, nil); ok {
		t.Fatal("future from answered ok=true")
	}
}

func TestResidualChangesResizeAndFailure(t *testing.T) {
	nw := testNet(t, 40, 13)
	srv := nw.Servers()[0]
	from := nw.MutationVersion()
	if err := nw.SetBandwidthCap(4, nw.BandwidthCap(4)*2); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetComputeCap(srv, nw.ComputeCap(srv)/2); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLinkUp(6, false); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetServerUp(srv, false); err != nil {
		t.Fatal(err)
	}
	links, servers, ok := collectChanges(t, nw, from)
	if !ok {
		t.Fatal("resize/failure window answered ok=false")
	}
	if len(links) != 2 || links[0] != 4 || links[1] != 6 {
		t.Fatalf("links = %v, want [4 6]", links)
	}
	if len(servers) != 1 || servers[0] != int32(srv) {
		t.Fatalf("servers = %v, want [%d]", servers, srv)
	}
}

func TestResidualChangesRestoreIsFull(t *testing.T) {
	nw := testNet(t, 30, 17)
	snap := nw.Snapshot()
	if err := nw.Allocate(Allocation{Links: []LinkShare{{Edge: 0, Mbps: 1}}}); err != nil {
		t.Fatal(err)
	}
	from := nw.MutationVersion()
	if err := nw.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := nw.ResidualChangesSince(from, nil, nil); ok {
		t.Fatal("window across Restore answered ok=true")
	}
	// But a window after the restore works again.
	from = nw.MutationVersion()
	if err := nw.Allocate(Allocation{Links: []LinkShare{{Edge: 2, Mbps: 1}}}); err != nil {
		t.Fatal(err)
	}
	links, _, ok := collectChanges(t, nw, from)
	if !ok || len(links) != 1 || links[0] != 2 {
		t.Fatalf("post-restore window: links=%v ok=%v", links, ok)
	}
}

func TestResidualChangesHistoryEviction(t *testing.T) {
	nw := testNet(t, 30, 19)
	base := nw.MutationVersion()
	for i := 0; i < residualLogEntries+8; i++ {
		e := i % nw.NumEdges()
		if err := nw.Allocate(Allocation{Links: []LinkShare{{Edge: e, Mbps: 0.001}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := nw.ResidualChangesSince(base, nil, nil); ok {
		t.Fatal("window beyond retained history answered ok=true")
	}
	// The most recent window still resolves.
	links, _, ok := nw.ResidualChangesSince(nw.MutationVersion()-uint64(residualLogEntries), nil, nil)
	if !ok {
		t.Fatal("window exactly at capacity answered ok=false")
	}
	if len(links) != residualLogEntries {
		t.Fatalf("len(links) = %d, want %d", len(links), residualLogEntries)
	}
}

func TestResidualChangesRingIDOverflow(t *testing.T) {
	nw := testNet(t, 50, 23)
	m := nw.NumEdges()
	// Each epoch touches many links so the ID arena wraps long before
	// the entry ring does.
	touched := make([]bool, m)
	var links []LinkShare
	for round := 0; round < 80; round++ {
		clear(touched)
		for j := 0; j < 128; j++ {
			touched[(round*37+j)%m] = true
		}
		links = links[:0]
		for e, on := range touched {
			if on {
				links = append(links, LinkShare{Edge: e, Mbps: 0.0001})
			}
		}
		if err := nw.Allocate(Allocation{Links: links}); err != nil {
			t.Fatal(err)
		}
	}
	// Recent windows must stay exact even with the arena wrapping.
	from := nw.MutationVersion() - 3
	got, _, ok := nw.ResidualChangesSince(from, nil, nil)
	if !ok {
		t.Fatal("3-epoch window answered ok=false after arena wrap")
	}
	perEpoch := 128
	if m < perEpoch {
		perEpoch = m // the 128 keys collide mod m
	}
	if len(got) != 3*perEpoch {
		t.Fatalf("len(links) = %d, want %d", len(got), 3*perEpoch)
	}
	seen := map[int32]bool{}
	for _, id := range got {
		seen[id] = true
	}
	for round := 77; round < 80; round++ {
		for j := 0; j < 128; j++ {
			if id := int32((round*37 + j) % m); !seen[id] {
				t.Fatalf("round %d link %d missing from window", round, id)
			}
		}
	}
}

func TestResidualChangesCloneIndependence(t *testing.T) {
	nw := testNet(t, 30, 29)
	if err := nw.Allocate(Allocation{Links: []LinkShare{{Edge: 0, Mbps: 1}}}); err != nil {
		t.Fatal(err)
	}
	from := nw.MutationVersion() - 1
	cp := nw.Clone()

	// The clone carries the history...
	links, _, ok := cp.ResidualChangesSince(from, nil, nil)
	if !ok || len(links) != 1 || links[0] != 0 {
		t.Fatalf("clone window: links=%v ok=%v", links, ok)
	}
	// ...and diverging the original does not leak into it.
	if err := nw.Allocate(Allocation{Links: []LinkShare{{Edge: 5, Mbps: 1}}}); err != nil {
		t.Fatal(err)
	}
	links, _, ok = cp.ResidualChangesSince(from, nil, nil)
	if !ok || len(links) != 1 || links[0] != 0 {
		t.Fatalf("clone window after original mutated: links=%v ok=%v", links, ok)
	}

	// CloneInto reuses storage and matches Clone.
	var dst Network
	nw.CloneInto(&dst)
	links, _, ok = dst.ResidualChangesSince(from, nil, nil)
	if !ok || len(links) != 2 {
		t.Fatalf("CloneInto window: links=%v ok=%v", links, ok)
	}
	// Re-cloning after further mutation refreshes the destination.
	if err := nw.SetLinkUp(7, false); err != nil {
		t.Fatal(err)
	}
	nw.CloneInto(&dst)
	links, _, ok = dst.ResidualChangesSince(nw.MutationVersion()-1, nil, nil)
	if !ok || len(links) != 1 || links[0] != 7 {
		t.Fatalf("CloneInto refresh window: links=%v ok=%v", links, ok)
	}
}

func TestCloneIntoMatchesClone(t *testing.T) {
	nw := testNet(t, 40, 31)
	srv := nw.Servers()[0]
	if err := nw.Allocate(Allocation{
		Links:   []LinkShare{{Edge: 0, Mbps: 10}, {Edge: 1, Mbps: 20}},
		Servers: []ServerShare{{Node: srv, MHz: 100}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLinkUp(3, false); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetServerUp(nw.Servers()[1], false); err != nil {
		t.Fatal(err)
	}

	want := nw.Clone()
	var got Network
	nw.CloneInto(&got)
	// Run it twice: the second pass exercises the storage-reuse paths.
	nw.CloneInto(&got)

	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape: got %d/%d, want %d/%d",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if got.MutationVersion() != want.MutationVersion() ||
		got.StructureVersion() != want.StructureVersion() {
		t.Fatal("version mismatch")
	}
	for e := 0; e < want.NumEdges(); e++ {
		if got.ResidualBandwidth(e) != want.ResidualBandwidth(e) ||
			got.BandwidthCap(e) != want.BandwidthCap(e) ||
			got.LinkUnitCost(e) != want.LinkUnitCost(e) ||
			got.LinkUp(e) != want.LinkUp(e) {
			t.Fatalf("link %d state mismatch", e)
		}
		if got.Graph().Edge(e) != want.Graph().Edge(e) {
			t.Fatalf("edge %d mismatch", e)
		}
	}
	ws, gs := want.Servers(), got.Servers()
	if len(ws) != len(gs) {
		t.Fatalf("servers: got %d, want %d", len(gs), len(ws))
	}
	for i, v := range ws {
		if gs[i] != v {
			t.Fatalf("server list mismatch at %d", i)
		}
		if got.ResidualCompute(v) != want.ResidualCompute(v) ||
			got.ComputeCap(v) != want.ComputeCap(v) ||
			got.ServerUnitCost(v) != want.ServerUnitCost(v) ||
			got.ServerUp(v) != want.ServerUp(v) {
			t.Fatalf("server %d state mismatch", v)
		}
	}

	// Independence: mutating the copy must not touch the source.
	beforeFree := nw.ResidualBandwidth(0)
	if err := got.Allocate(Allocation{Links: []LinkShare{{Edge: 0, Mbps: 5}}}); err != nil {
		t.Fatal(err)
	}
	if nw.ResidualBandwidth(0) != beforeFree {
		t.Fatal("CloneInto destination shares residual storage with source")
	}
}

func TestVisitServers(t *testing.T) {
	nw := testNet(t, 50, 37)
	var got []graph.NodeID
	nw.VisitServers(func(v graph.NodeID) bool {
		got = append(got, v)
		return true
	})
	want := nw.Servers()
	if len(got) != len(want) {
		t.Fatalf("visited %d servers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: %d != %d", i, got[i], want[i])
		}
	}
	n := 0
	nw.VisitServers(func(graph.NodeID) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d, want 1", n)
	}
}
