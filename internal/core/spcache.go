package core

import (
	"sync"
	"sync/atomic"

	"nfvmcast/internal/graph"
)

// spCache memoizes single-source shortest-path trees per root over one
// immutable work graph, so evaluation paths that revisit a root (the
// source doubling as a candidate server, engine re-plans, and the
// static planner's cross-request reuse) share one Dijkstra instead of
// recomputing it. graph.ShortestPaths is immutable after construction,
// so cached trees may be shared freely.
//
// The cache is safe for concurrent use. Misses are single-flighted:
// concurrent requests for the same root block on one computation
// instead of duplicating it — Dijkstra over the work graph is the
// dominant cost of a plan, so a duplicated build wastes exactly the
// work the cache exists to save.
//
// A miss goes through the seed table of the graph's adjacency
// (graph.SeededTree): it reuses the root's last tree through
// graph.ReuseInto, whose certified result is bit-identical to a fresh
// Dijkstra, and runs Dijkstra when there is no seed or the reuse does
// not certify. After one reuse fails, the cache stops trying: its
// graph prices every link for one request, so a tie or heavy damage at
// one root predicts the same at the others.
type spCache struct {
	g       *graph.Graph
	noReuse atomic.Bool // a reuse failed here: Dijkstra only

	mu       sync.Mutex
	byRoot   map[graph.NodeID]*graph.ShortestPaths
	inflight map[graph.NodeID]*spCall
	builds   uint64 // trees built by Dijkstra (not reuses, not hits)
	reuses   uint64 // trees built by a certified ReuseInto

	// Reuse census (test instrumentation): reuse attempts that did not
	// certify, and seeded roots sent straight to Dijkstra by noReuse.
	abandoned, skipped atomic.Uint64
}

// spCall is one in-flight Dijkstra build another goroutine may wait on.
type spCall struct {
	done chan struct{}
	sp   *graph.ShortestPaths
	err  error
}

// newSPCache returns an empty cache over g whose misses reuse and
// publish the seeds of g's adjacency.
func newSPCache(g *graph.Graph) *spCache {
	return &spCache{g: g, byRoot: make(map[graph.NodeID]*graph.ShortestPaths)}
}

// from returns the shortest-path tree rooted at v, computing and
// memoizing it on first use.
func (c *spCache) from(v graph.NodeID) (*graph.ShortestPaths, error) {
	return c.fromWith(v, nil)
}

// fromWith is from with an optional caller-owned Dijkstra workspace
// (heap arena and reuse scratch) for the miss path. The computed tree
// itself owns its arrays, so cached trees stay immutable and shareable
// regardless of which workspace produced them.
func (c *spCache) fromWith(v graph.NodeID, ws *graph.DijkstraWorkspace) (*graph.ShortestPaths, error) {
	c.mu.Lock()
	if sp, ok := c.byRoot[v]; ok {
		c.mu.Unlock()
		return sp, nil
	}
	if call, ok := c.inflight[v]; ok {
		c.mu.Unlock()
		<-call.done
		return call.sp, call.err
	}
	call := &spCall{done: make(chan struct{})}
	if c.inflight == nil {
		c.inflight = make(map[graph.NodeID]*spCall)
	}
	c.inflight[v] = call
	c.mu.Unlock()

	sp, reused, err := c.build(v, ws)

	c.mu.Lock()
	if err == nil {
		c.byRoot[v] = sp
		if reused {
			c.reuses++
		} else {
			c.builds++
		}
	}
	delete(c.inflight, v)
	c.mu.Unlock()
	call.sp, call.err = sp, err
	close(call.done)
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// build computes the tree rooted at v through g's seed table, reusing
// the seed unless a reuse has failed on this cache. The tree is never
// written again.
func (c *spCache) build(v graph.NodeID, ws *graph.DijkstraWorkspace) (sp *graph.ShortestPaths, reused bool, err error) {
	if ws == nil {
		ws = new(graph.DijkstraWorkspace)
	}
	reuse := !c.noReuse.Load()
	sp, seeded, reused, err := ws.SeededTree(c.g, v, reuse)
	if err != nil {
		return nil, false, err
	}
	if seeded && !reuse {
		c.skipped.Add(1)
	} else if seeded {
		c.noteReuse(reused)
	}
	return sp, reused, nil
}

// noteReuse records the outcome of one reuse attempt. It only ever
// sets noReuse: planners sharing the cache record in any order, and a
// certified reuse that read the flag before another's refusal set it
// must not clear it.
func (c *spCache) noteReuse(reused bool) {
	if !reused {
		c.abandoned.Add(1)
		c.noReuse.Store(true)
	}
}

// buildCount reports how many trees the cache has built by Dijkstra —
// test instrumentation for the single-flight guarantee.
func (c *spCache) buildCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds
}
