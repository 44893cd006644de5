package core

// Tests for the plan-path caches: the per-root shortest-path cache
// under concurrent mixed hit/miss access, and the work-graph cache's
// key invalidation on residual mutations.

import (
	"sync"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

func TestSPCacheConcurrentMixedHitMiss(t *testing.T) {
	nw := testNetwork(t, 60, 41)
	g := nw.Graph()
	spc := newSPCache(g)

	// Reference trees computed fresh, single-threaded.
	want := make([]*graph.ShortestPaths, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		sp, err := graph.Dijkstra(g, v)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = sp
	}

	// Pre-warm a few roots so goroutines mix hits with misses, then
	// hammer overlapping root sets from many goroutines, half of them
	// using a private Dijkstra workspace.
	for v := 0; v < 5; v++ {
		if _, err := spc.from(graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var ws graph.DijkstraWorkspace
			for rep := 0; rep < 3; rep++ {
				for v := 0; v < g.NumNodes(); v++ {
					root := graph.NodeID((v + wi*7) % g.NumNodes())
					var sp *graph.ShortestPaths
					var err error
					if wi%2 == 0 {
						sp, err = spc.fromWith(root, &ws)
					} else {
						sp, err = spc.from(root)
					}
					if err != nil {
						errs[wi] = err
						return
					}
					if sp.Source != root || sp.Dist[root] != 0 {
						t.Errorf("worker %d: bad tree for root %d", wi, root)
						return
					}
					for u := range sp.Dist {
						if sp.Dist[u] != want[root].Dist[u] {
							t.Errorf("worker %d root %d: Dist[%d]=%v want %v",
								wi, root, u, sp.Dist[u], want[root].Dist[u])
							return
						}
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWorkGraphKeyTracksResidualMutations(t *testing.T) {
	nw := testNetwork(t, 30, 42)
	req := testRequest(t, nw, 43)
	base := makeWorkGraphKey(nw, req)

	if got := makeWorkGraphKey(nw, req); got != base {
		t.Fatal("key not stable without mutations")
	}

	// Allocate invalidates.
	alloc := sdn.Allocation{Links: []sdn.LinkShare{{Edge: 0, Mbps: 1}}}
	if err := nw.Allocate(alloc); err != nil {
		t.Fatal(err)
	}
	afterAlloc := makeWorkGraphKey(nw, req)
	if afterAlloc == base {
		t.Fatal("key unchanged after Allocate")
	}

	// A Release that undoes the Allocate just before it returns the
	// residuals, bit for bit, and the key with them.
	if err := nw.Release(alloc); err != nil {
		t.Fatal(err)
	}
	if got := makeWorkGraphKey(nw, req); got != base {
		t.Fatal("key not restored after Release undid the Allocate")
	}

	// An intervening mutation prevents the return: releasing alloc
	// after another allocation leaves a state that was never keyed,
	// and releasing the other one afterwards takes a fresh key too.
	other := sdn.Allocation{Links: []sdn.LinkShare{{Edge: 1, Mbps: 1}}}
	if err := nw.Allocate(alloc); err != nil {
		t.Fatal(err)
	}
	if err := nw.Allocate(other); err != nil {
		t.Fatal(err)
	}
	if err := nw.Release(alloc); err != nil {
		t.Fatal(err)
	}
	afterRelease := makeWorkGraphKey(nw, req)
	if afterRelease == base || afterRelease == afterAlloc {
		t.Fatal("key returned after a Release that did not undo the last Allocate")
	}
	if err := nw.Release(other); err != nil {
		t.Fatal(err)
	}
	if got := makeWorkGraphKey(nw, req); got == base || got == afterRelease {
		t.Fatal("key returned after the undo record had moved on")
	}
	afterRelease = makeWorkGraphKey(nw, req)

	// Restore invalidates even when the restored residuals equal the
	// current ones.
	snap := nw.Snapshot()
	if err := nw.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := makeWorkGraphKey(nw, req); got == afterRelease {
		t.Fatal("key unchanged after Restore")
	}

	// Failure injection invalidates (structural + residual epoch).
	pre := makeWorkGraphKey(nw, req)
	nw.SetLinkUp(0, false)
	if got := makeWorkGraphKey(nw, req); got == pre {
		t.Fatal("key unchanged after SetLinkUp")
	}

	// Clones inherit the epochs: planning against a snapshot clone hits
	// the same cache entry as the network it was cloned from.
	if got := makeWorkGraphKey(nw.Clone(), req); got != makeWorkGraphKey(nw, req) {
		t.Fatal("clone does not share its parent's key")
	}

	// Different request parameters miss even at the same epoch.
	req2 := *req
	req2.BandwidthMbps++
	if got := makeWorkGraphKey(nw, &req2); got == makeWorkGraphKey(nw, req) {
		t.Fatal("key ignores request bandwidth")
	}
}

func TestWorkGraphCacheHitAfterMutationMiss(t *testing.T) {
	nw := testNetwork(t, 30, 44)
	req := testRequest(t, nw, 45)
	c := workGraphCache{
		capacitated: true,
		weight:      func(*sdn.Network, *multicast.Request, graph.EdgeID) float64 { return 1 },
	}
	before := nw.Clone() // keeps the first epoch's key

	w1, _ := c.acquire(nw, req)
	if got, _ := c.acquire(nw, req); got != w1 || c.hits != 1 {
		t.Fatalf("fresh entry not returned (hits %d)", c.hits)
	}

	if err := nw.Allocate(sdn.Allocation{Links: []sdn.LinkShare{{Edge: 0, Mbps: 1}}}); err != nil {
		t.Fatal(err)
	}
	w2, _ := c.acquire(nw, req)
	if c.hits != 1 {
		t.Fatal("stale entry served for post-mutation key")
	}
	if got, _ := c.acquire(nw, req); got != w2 || c.hits != 2 {
		t.Fatalf("post-mutation entry not returned (hits %d)", c.hits)
	}
	// The old epoch stays retrievable until evicted.
	if got, _ := c.acquire(before, req); got != w1 || c.hits != 3 {
		t.Fatalf("previous epoch evicted prematurely (hits %d)", c.hits)
	}
}
