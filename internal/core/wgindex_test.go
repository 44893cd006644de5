package core

// The work-graph cache's O(1) index against the structure it replaced:
// one slice in most-recently-used order, scanned front to back. The
// reference below is that slice; the oracle drives real acquire calls
// and demands the index make every decision the scan would.

import (
	"math/rand"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// linearMRU is the cache index as a slice, most recently used first.
type linearMRU struct{ keys []workGraphKey }

// lookup reports whether key is cached and promotes it to the front.
func (m *linearMRU) lookup(key workGraphKey) bool {
	for i, k := range m.keys {
		if k == key {
			copy(m.keys[1:i+1], m.keys[:i])
			m.keys[0] = key
			return true
		}
	}
	return false
}

// insert puts key at the front, dropping the last key beyond the cache
// size; it returns the dropped key, if any.
func (m *linearMRU) insert(key workGraphKey) (evicted *workGraphKey) {
	if len(m.keys) < workGraphCacheSize {
		m.keys = append(m.keys, workGraphKey{})
	} else {
		last := m.keys[len(m.keys)-1]
		evicted = &last
	}
	copy(m.keys[1:], m.keys)
	m.keys[0] = key
	return evicted
}

// checkIndex compares the cache's list order with the reference.
// Caller owns c.
func checkIndex(t *testing.T, step int, c *workGraphCache, m *linearMRU) {
	t.Helper()
	i := 0
	for n := c.mru; n != nil; n = n.older {
		if i >= len(m.keys) || n.key != m.keys[i] {
			t.Fatalf("step %d: list position %d holds %v, reference %v", step, i, n.key, m.keys[min(i, len(m.keys)-1)])
		}
		i++
	}
	if i != len(m.keys) || len(c.index) != len(m.keys) {
		t.Fatalf("step %d: list %d / index %d entries, reference %d", step, i, len(c.index), len(m.keys))
	}
}

// TestWorkGraphCacheIndexMatchesLinearMRU plans random requests over
// snapshot views of a network whose residuals and link states keep
// changing, so keys spread over many epochs, 12 request families and
// several structures — well past the cache size, so the LRU evicts
// throughout. Before each acquire the oracle asks the reference for the
// verdict (hit or miss); after it, the list ends and the evicted key
// must match, and every 16 calls the whole list.
func TestWorkGraphCacheIndexMatchesLinearMRU(t *testing.T) {
	nw := testNetwork(t, 12, 61)
	base := testRequest(t, nw, 62)
	reqs := make([]*multicast.Request, 12)
	for i := range reqs {
		r := base.Clone()
		r.BandwidthMbps = 5 + 3*float64(i)
		reqs[i] = r
	}
	c := workGraphCache{
		capacitated: true,
		weight: func(nw *sdn.Network, _ *multicast.Request, e graph.EdgeID) float64 {
			return 1 + nw.LinkUtilization(e)
		},
	}
	var ref linearMRU
	rng := rand.New(rand.NewSource(63))
	views := []*sdn.Network{nw.Clone()}
	var held []sdn.Allocation
	var down []graph.EdgeID
	evictions := 0
	const steps = 6000
	for step := 0; step < steps; step++ {
		// Move the live network on now and then; every epoch becomes a
		// view later steps may plan on.
		switch r := rng.Intn(60); {
		case r < 3:
			e := rng.Intn(nw.NumEdges())
			a := sdn.Allocation{Links: []sdn.LinkShare{{Edge: e, Mbps: nw.ResidualBandwidth(e) * 0.2}}}
			if nw.Allocate(a) == nil {
				held = append(held, a)
			}
			views = append(views, nw.Clone())
		case r < 5 && len(held) > 0:
			i := rng.Intn(len(held))
			if err := nw.Release(held[i]); err != nil {
				t.Fatal(err)
			}
			held = append(held[:i], held[i+1:]...)
			views = append(views, nw.Clone())
		case r == 5:
			if len(down) > 0 && rng.Intn(2) == 0 {
				if err := nw.SetLinkUp(down[0], true); err != nil {
					t.Fatal(err)
				}
				down = down[1:]
			} else {
				e := rng.Intn(nw.NumEdges())
				if err := nw.SetLinkUp(e, false); err != nil {
					t.Fatal(err)
				}
				down = append(down, e)
			}
			views = append(views, nw.Clone())
		}
		// Favour recent views, so hits and evictions both occur.
		vi := len(views) - 1 - int(float64(len(views))*rng.Float64()*rng.Float64())
		view, req := views[vi], reqs[rng.Intn(len(reqs))]
		key := makeWorkGraphKey(view, req)

		wantHit := ref.lookup(key)
		var evicted *workGraphKey
		if !wantHit {
			evicted = ref.insert(key)
		}
		hits := c.hits
		c.acquire(view, req)
		if gotHit := c.hits != hits; gotHit != wantHit {
			t.Fatalf("step %d: key %v hit=%v, reference %v", step, key, gotHit, wantHit)
		}
		if c.mru.key != key || c.lru.key != ref.keys[len(ref.keys)-1] {
			t.Fatalf("step %d: list ends %v … %v, reference %v … %v", step, c.mru.key, c.lru.key, key, ref.keys[len(ref.keys)-1])
		}
		if evicted != nil {
			evictions++
			if _, ok := c.index[*evicted]; ok {
				t.Fatalf("step %d: %v still indexed, reference evicted it", step, *evicted)
			}
		}
		if step%16 == 0 || step == steps-1 {
			checkIndex(t, step, &c, &ref)
		}
	}
	t.Logf("%d acquires: %d hits, %d builds; %d evictions over %d views",
		steps, c.hits, c.builds, evictions, len(views))
	if evictions < 200 || c.hits < 500 || len(views) < 100 {
		t.Fatalf("sequence too tame: %d evictions, %d hits, %d views", evictions, c.hits, len(views))
	}
}
