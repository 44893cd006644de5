package core

import (
	"math"
	"sync"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// workGraphKey identifies one residual work-graph construction: the
// network's structural and residual epochs plus the request parameters
// the construction depends on (link filtering and pricing use the
// request's bandwidth, server filtering its compute demand — nothing
// else about the request enters buildWorkGraph).
//
// Like SPStaticPlanner's memoisation, the key assumes a planner serves
// one logical network plus read-only clones of it: clones inherit both
// versions, and sdn.Network's versions name residual states, so equal
// keys imply identical residual state on that network family, also
// when a departure returns the residuals to a state planned before.
// The node/edge counts guard against gross mismatches when a planner
// is (incorrectly) pointed at an unrelated network.
type workGraphKey struct {
	structVer uint64
	mutVer    uint64
	nodes     int
	edges     int
	bandwidth float64
	demand    float64
}

func makeWorkGraphKey(nw *sdn.Network, req *multicast.Request) workGraphKey {
	return workGraphKey{
		structVer: nw.StructureVersion(),
		mutVer:    nw.MutationVersion(),
		nodes:     nw.NumNodes(),
		edges:     nw.NumEdges(),
		bandwidth: req.BandwidthMbps,
		demand:    req.ComputeDemandMHz(),
	}
}

// wgEntry pairs a cached work graph with the shortest-path cache over
// it; both are immutable/concurrency-safe, so entries may be shared by
// any number of planner goroutines.
type wgEntry struct {
	key workGraphKey
	w   *workGraph
	sp  *spCache
}

// wgNode is an entry's place in the cache's MRU list.
type wgNode struct {
	wgEntry
	newer, older *wgNode
}

// wgCall is one in-flight build other goroutines wait on instead of
// duplicating it.
type wgCall struct {
	done chan struct{}
	w    *workGraph
	sp   *spCache
}

// workGraphCache memoizes residual work graphs (and their
// shortest-path caches) across Plan calls. acquire has two outcomes:
//
//   - Hit: an exact (structVer, mutVer, params) key returns the shared
//     entry. A departure that undoes the admission before it restores
//     the network's version, so the next plan at that state hits.
//   - Build: any miss re-prices a weight clone of base, the cache's own
//     copy of the network graph (buildWorkGraph). Every work graph
//     shares base's adjacency and its seed table, so each tree comes
//     from the tree the last view built from the same root
//     (graph.SeededTree), whatever links the two views exclude.
//
// base is taken on the first build and replaced only when the node or
// edge count differs: sdn.Network never adds a link after
// construction, and a failure or a residual change moves prices, not
// adjacency.
//
// Concurrent misses on one key are single-flighted. Every lookup,
// promotion, insertion and eviction is O(1): entries sit in a doubly
// linked MRU list behind a key index.
//
// No outcome moves a decision: a hit returns the work graph of an
// identical residual view, and every tree is either a fresh Dijkstra
// run or a reuse certified bit-identical to one (graph.ReuseInto), ties
// included.
type workGraphCache struct {
	// capacitated and weight fix the build recipe. Set once at planner
	// construction, before any concurrent use.
	capacitated bool
	weight      func(nw *sdn.Network, req *multicast.Request, e graph.EdgeID) float64

	mu       sync.Mutex
	base     *graph.Graph // every build's adjacency; nil before the first
	index    map[workGraphKey]*wgNode
	mru, lru *wgNode // list ends; nil when empty
	inflight map[workGraphKey]*wgCall

	// Transition counters (under mu) — test and tuning instrumentation.
	hits   uint64 // exact key hits
	builds uint64 // misses built
}

// priceMarginal sets the residual-view recipe of the exponential-cost
// planners (Online_CP, Online_CPK, Dist_CP): links without the request's
// bandwidth are dropped, and Steiner construction prices each remaining
// link with the request's marginal exponential cost — the weight
// increase its own b_k causes, β^{util after} − 1. On an idle network the
// paper's w_e(k) is 0 on every link, which would leave tree selection
// indifferent between short and long trees; the marginal form
// ≈ (b_k/B_e)·ln β at low load steers requests onto short,
// high-capacity trees and converges to w_e(k) as links fill. Admission
// thresholds still use the paper's pre-allocation weights.
func (c *workGraphCache) priceMarginal(model CostModel) {
	c.capacitated = true
	c.weight = func(nw *sdn.Network, req *multicast.Request, e graph.EdgeID) float64 {
		utilAfter := 1 - (nw.ResidualBandwidth(e)-req.BandwidthMbps)/nw.BandwidthCap(e)
		return math.Pow(model.Beta, utilAfter) - 1
	}
}

// workGraphCacheSize bounds the LRU. The engine benchmarks cycle
// through hundreds of distinct request parameter pairs, each its own
// key at the idle state — size the cache to keep a full request pool
// resident.
const workGraphCacheSize = 512

// lookup finds key and promotes it to most recently used. Caller
// holds mu.
func (c *workGraphCache) lookup(key workGraphKey) (*wgNode, bool) {
	n, ok := c.index[key]
	if ok && n != c.mru {
		c.unlink(n)
		c.pushFront(n)
	}
	return n, ok
}

// insert adds e as most recently used, evicting the least recently
// used entry beyond the cache size. An entry already present is left
// in place. Caller holds mu.
func (c *workGraphCache) insert(e wgEntry) {
	if _, ok := c.index[e.key]; ok {
		return
	}
	if c.index == nil {
		c.index = make(map[workGraphKey]*wgNode)
	}
	var n *wgNode
	if len(c.index) < workGraphCacheSize {
		n = new(wgNode)
	} else {
		n = c.evict()
	}
	n.wgEntry = e
	c.index[e.key] = n
	c.pushFront(n)
}

// evict removes the least recently used entry and returns its node for
// reuse.
func (c *workGraphCache) evict() *wgNode {
	n := c.lru
	c.unlink(n)
	delete(c.index, n.key)
	*n = wgNode{}
	return n
}

// pushFront makes n the most recently used entry.
func (c *workGraphCache) pushFront(n *wgNode) {
	n.newer, n.older = nil, c.mru
	if c.mru != nil {
		c.mru.newer = n
	} else {
		c.lru = n
	}
	c.mru = n
}

// unlink detaches n from the MRU list.
func (c *workGraphCache) unlink(n *wgNode) {
	if n.newer != nil {
		n.newer.older = n.older
	} else {
		c.mru = n.older
	}
	if n.older != nil {
		n.older.newer = n.newer
	} else {
		c.lru = n.newer
	}
	n.newer, n.older = nil, nil
}

// stats returns the transition counters.
func (c *workGraphCache) stats() (hits, builds uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.builds
}

// acquire returns the work graph and shortest-path cache for (nw, req):
// a hit or a build. Concurrent misses on one key share a single
// construction.
func (c *workGraphCache) acquire(nw *sdn.Network, req *multicast.Request) (*workGraph, *spCache) {
	key := makeWorkGraphKey(nw, req)
	c.mu.Lock()
	if n, ok := c.lookup(key); ok {
		c.hits++
		w, sp := n.w, n.sp
		c.mu.Unlock()
		return w, sp
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-call.done
		return call.w, call.sp
	}
	call := &wgCall{done: make(chan struct{})}
	if c.inflight == nil {
		c.inflight = make(map[workGraphKey]*wgCall)
	}
	c.inflight[key] = call
	if c.base == nil || c.base.NumNodes() != nw.NumNodes() || c.base.NumEdges() != nw.NumEdges() {
		c.base = nw.Graph().Clone()
	}
	base := c.base
	c.mu.Unlock()

	w := buildWorkGraph(base, nw, req, c.capacitated, func(e graph.EdgeID) float64 { return c.weight(nw, req, e) })
	sp := newSPCache(w.g)

	c.mu.Lock()
	c.insert(wgEntry{key: key, w: w, sp: sp})
	c.builds++
	delete(c.inflight, key)
	c.mu.Unlock()
	call.w, call.sp = w, sp
	close(call.done)
	return w, sp
}
