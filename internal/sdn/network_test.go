package sdn

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/topology"
)

func testNet(t testing.TB, n int, seed int64) *Network {
	t.Helper()
	topo, err := topology.WaxmanDegree(n, 4, 0.14, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	nw, err := NewNetwork(topo, DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewNetworkRanges(t *testing.T) {
	nw := testNet(t, 50, 3)
	cfg := DefaultConfig()
	for e := 0; e < nw.NumEdges(); e++ {
		if c := nw.BandwidthCap(e); c < cfg.BandwidthCapRangeMbps[0] || c > cfg.BandwidthCapRangeMbps[1] {
			t.Fatalf("link %d capacity %v outside range", e, c)
		}
		if nw.ResidualBandwidth(e) != nw.BandwidthCap(e) {
			t.Fatalf("link %d not initially free", e)
		}
		if c := nw.LinkUnitCost(e); c < cfg.LinkUnitCost[0] || c > cfg.LinkUnitCost[1] {
			t.Fatalf("link %d unit cost %v outside range", e, c)
		}
		if nw.LinkUtilization(e) != 0 {
			t.Fatalf("link %d initial utilisation not 0", e)
		}
	}
	servers := nw.Servers()
	if len(servers) != 5 {
		t.Fatalf("servers = %d, want 5 (10%% of 50)", len(servers))
	}
	for _, v := range servers {
		if !nw.IsServer(v) {
			t.Fatalf("IsServer(%d) false for listed server", v)
		}
		if c := nw.ComputeCap(v); c < cfg.ComputeCapRangeMHz[0] || c > cfg.ComputeCapRangeMHz[1] {
			t.Fatalf("server %d capacity %v outside range", v, c)
		}
		if nw.ResidualCompute(v) != nw.ComputeCap(v) {
			t.Fatalf("server %d not initially free", v)
		}
		if nw.ServerUtilization(v) != 0 {
			t.Fatalf("server %d initial utilisation not 0", v)
		}
	}
	if nw.IsServer(-1) || nw.IsServer(nw.NumNodes()) {
		t.Fatal("IsServer out of range should be false")
	}
}

func TestNewNetworkWithServersValidation(t *testing.T) {
	topo := topology.GEANT()
	rng := rand.New(rand.NewSource(1))
	if _, err := NewNetworkWithServers(topo, DefaultConfig(), nil, rng); err == nil {
		t.Fatal("empty server set accepted")
	}
	if _, err := NewNetworkWithServers(topo, DefaultConfig(), []graph.NodeID{99}, rng); err == nil {
		t.Fatal("out-of-range server accepted")
	}
	// Duplicate servers collapse.
	nw, err := NewNetworkWithServers(topo, DefaultConfig(), []graph.NodeID{3, 3, 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nw.Servers()); got != 2 {
		t.Fatalf("servers = %d, want 2 after dedupe", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.LinkUnitCost = [2]float64{2, 1}
	topo := topology.GEANT()
	rng := rand.New(rand.NewSource(1))
	if _, err := NewNetwork(topo, bad, rng); err == nil {
		t.Fatal("inverted cost range accepted")
	}
	bad = DefaultConfig()
	bad.BandwidthCapRangeMbps = [2]float64{0, 10}
	if _, err := NewNetwork(topo, bad, rng); err == nil {
		t.Fatal("zero capacity floor accepted")
	}
}

func TestAllocateReleaseRoundtrip(t *testing.T) {
	nw := testNet(t, 30, 5)
	v := nw.Servers()[0]
	alloc := Allocation{
		Links:   []LinkShare{{Edge: 0, Mbps: 100}, {Edge: 1, Mbps: 250}},
		Servers: []ServerShare{{Node: v, MHz: 500}},
	}
	if err := nw.Allocate(alloc); err != nil {
		t.Fatal(err)
	}
	if got := nw.ResidualBandwidth(0); got != nw.BandwidthCap(0)-100 {
		t.Fatalf("link 0 residual = %v", got)
	}
	if got := nw.ResidualCompute(v); got != nw.ComputeCap(v)-500 {
		t.Fatalf("server residual = %v", got)
	}
	if nw.LinkUtilization(0) <= 0 || nw.ServerUtilization(v) <= 0 {
		t.Fatal("utilisation should be positive after allocation")
	}
	if err := nw.Release(alloc); err != nil {
		t.Fatal(err)
	}
	if nw.ResidualBandwidth(0) != nw.BandwidthCap(0) {
		t.Fatal("release did not restore link 0")
	}
	if nw.ResidualCompute(v) != nw.ComputeCap(v) {
		t.Fatal("release did not restore server")
	}
}

func TestAllocateAtomicOnFailure(t *testing.T) {
	nw := testNet(t, 30, 5)
	v := nw.Servers()[0]
	alloc := Allocation{
		Links:   []LinkShare{{Edge: 0, Mbps: 10}},
		Servers: []ServerShare{{Node: v, MHz: nw.ComputeCap(v) + 1}},
	}
	err := nw.Allocate(alloc)
	var insuff *InsufficientComputeError
	if !errors.As(err, &insuff) {
		t.Fatalf("err = %v, want InsufficientComputeError", err)
	}
	if insuff.Node != v {
		t.Fatalf("error names node %d, want %d", insuff.Node, v)
	}
	// The link part must not have been charged.
	if nw.ResidualBandwidth(0) != nw.BandwidthCap(0) {
		t.Fatal("failed allocation charged a link")
	}
}

func TestAllocateErrors(t *testing.T) {
	nw := testNet(t, 30, 5)
	over := nw.BandwidthCap(0) + 1
	err := nw.Allocate(Allocation{Links: []LinkShare{{Edge: 0, Mbps: over}}})
	var bw *InsufficientBandwidthError
	if !errors.As(err, &bw) {
		t.Fatalf("err = %v, want InsufficientBandwidthError", err)
	}
	if bw.Error() == "" {
		t.Fatal("empty error message")
	}
	// Non-server node.
	nonServer := graph.NodeID(-1)
	for v := 0; v < nw.NumNodes(); v++ {
		if !nw.IsServer(v) {
			nonServer = v
			break
		}
	}
	err = nw.Allocate(Allocation{Servers: []ServerShare{{Node: nonServer, MHz: 1}}})
	var ns *NotServerError
	if !errors.As(err, &ns) {
		t.Fatalf("err = %v, want NotServerError", err)
	}
	// Negative amounts.
	if err := nw.Allocate(Allocation{Links: []LinkShare{{Edge: 0, Mbps: -5}}}); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	// Edge out of range.
	if err := nw.Allocate(Allocation{Links: []LinkShare{{Edge: 9999, Mbps: 5}}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestReleaseOverflowRejected(t *testing.T) {
	nw := testNet(t, 30, 5)
	if err := nw.Release(Allocation{Links: []LinkShare{{Edge: 0, Mbps: 10}}}); err == nil {
		t.Fatal("release beyond capacity accepted")
	}
	v := nw.Servers()[0]
	if err := nw.Release(Allocation{Servers: []ServerShare{{Node: v, MHz: 1}}}); err == nil {
		t.Fatal("server release beyond capacity accepted")
	}
}

func TestSnapshotRestore(t *testing.T) {
	nw := testNet(t, 30, 5)
	v := nw.Servers()[0]
	snap := nw.Snapshot()
	if err := nw.Allocate(Allocation{
		Links:   []LinkShare{{Edge: 0, Mbps: 100}},
		Servers: []ServerShare{{Node: v, MHz: 100}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if nw.ResidualBandwidth(0) != nw.BandwidthCap(0) {
		t.Fatal("restore did not rewind link")
	}
	if nw.ResidualCompute(v) != nw.ComputeCap(v) {
		t.Fatal("restore did not rewind server")
	}
	// Restoring a mismatched snapshot errors.
	other := testNet(t, 40, 6)
	if err := other.Restore(snap); err == nil {
		t.Fatal("cross-network restore accepted")
	}
}

// TestRestoreRefusesResidualAboveCapacity replays the sequence that
// used to leave a resource's allocated share negative: snapshot the
// idle network, shrink a capacity, then restore the snapshot, whose
// residual is now above that capacity. Restore must refuse and leave
// the residuals, the versions and the undo record alone, so the
// allocation made before the refused call still undoes to its version.
func TestRestoreRefusesResidualAboveCapacity(t *testing.T) {
	nw := testNet(t, 30, 5)
	v := nw.Servers()[0]
	snap := nw.Snapshot()
	for _, tc := range []struct {
		name   string
		shrink func() error
	}{
		{"server", func() error { return nw.SetComputeCap(v, nw.ComputeCap(v)/2) }},
		{"link", func() error { return nw.SetBandwidthCap(0, nw.BandwidthCap(0)/2) }},
	} {
		if err := tc.shrink(); err != nil {
			t.Fatal(err)
		}
		a := Allocation{Links: []LinkShare{{Edge: 1, Mbps: 10}}, Servers: []ServerShare{{Node: v, MHz: 10}}}
		before := nw.MutationVersion()
		if err := nw.Allocate(a); err != nil {
			t.Fatal(err)
		}
		state, sv, mv := stateBits(nw), nw.StructureVersion(), nw.MutationVersion()
		if err := nw.Restore(snap); err == nil {
			t.Fatalf("%s: restore above the shrunk capacity accepted: %v MHz free of %v",
				tc.name, nw.ResidualCompute(v), nw.ComputeCap(v))
		}
		if stateBits(nw) != state || nw.StructureVersion() != sv || nw.MutationVersion() != mv {
			t.Fatalf("%s: the refused restore moved the network", tc.name)
		}
		if err := nw.Release(a); err != nil {
			t.Fatal(err)
		}
		if nw.MutationVersion() != before {
			t.Fatalf("%s: the refused restore dropped the undo record: version %d, want %d",
				tc.name, nw.MutationVersion(), before)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	nw := testNet(t, 30, 5)
	cp := nw.Clone()
	if err := cp.Allocate(Allocation{Links: []LinkShare{{Edge: 0, Mbps: 50}}}); err != nil {
		t.Fatal(err)
	}
	if nw.ResidualBandwidth(0) != nw.BandwidthCap(0) {
		t.Fatal("clone allocation affected original")
	}
	if cp.Name() != nw.Name() || cp.NumNodes() != nw.NumNodes() {
		t.Fatal("clone lost identity")
	}
}

func TestNetworkDeterminism(t *testing.T) {
	a := testNet(t, 30, 9)
	b := testNet(t, 30, 9)
	for e := 0; e < a.NumEdges(); e++ {
		if a.BandwidthCap(e) != b.BandwidthCap(e) || a.LinkUnitCost(e) != b.LinkUnitCost(e) {
			t.Fatalf("link %d differs between equal-seed networks", e)
		}
	}
	as, bs := a.Servers(), b.Servers()
	for i := range as {
		if as[i] != bs[i] {
			t.Fatal("server sets differ between equal-seed networks")
		}
	}
}

func TestPropertyAllocationRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo, err := topology.WaxmanDegree(10+rng.Intn(40), 4, 0.14, seed)
		if err != nil {
			return false
		}
		nw, err := NewNetwork(topo, DefaultConfig(), rng)
		if err != nil {
			return false
		}
		// Random feasible allocation.
		var alloc Allocation
		for e := 0; e < nw.NumEdges(); e++ {
			if rng.Intn(3) == 0 {
				alloc.Links = append(alloc.Links, LinkShare{Edge: e, Mbps: rng.Float64() * nw.ResidualBandwidth(e)})
			}
		}
		for _, v := range nw.Servers() {
			if rng.Intn(2) == 0 {
				alloc.Servers = append(alloc.Servers, ServerShare{Node: v, MHz: rng.Float64() * nw.ResidualCompute(v)})
			}
		}
		if err := nw.Allocate(alloc); err != nil {
			return false
		}
		if err := nw.Release(alloc); err != nil {
			return false
		}
		// Floating-point: (cap-x)+x may differ from cap by an ulp.
		const tol = 1e-6
		for e := 0; e < nw.NumEdges(); e++ {
			if d := nw.ResidualBandwidth(e) - nw.BandwidthCap(e); d < -tol || d > tol {
				return false
			}
		}
		for _, v := range nw.Servers() {
			if d := nw.ResidualCompute(v) - nw.ComputeCap(v); d < -tol || d > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
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
