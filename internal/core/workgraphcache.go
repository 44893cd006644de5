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
// versions, and sdn.Network bumps MutationVersion on every residual
// mutation, so equal keys imply identical residual state on that
// network family. The node/edge counts guard against gross mismatches
// when a planner is (incorrectly) pointed at an unrelated network.
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

// wgStructure is a key without its residual epoch and request
// parameters: keys with equal structures were built over the same
// topology and up/down state — the precondition for building one key's
// work graph on the other's adjacency (buildWorkGraphFrom).
type wgStructure struct {
	structVer uint64
	nodes     int
	edges     int
}

func (k workGraphKey) structure() wgStructure {
	return wgStructure{structVer: k.structVer, nodes: k.nodes, edges: k.edges}
}

// wgFamily is a key without its residual epoch. Keys of one family may
// be patched into each other: equal structures mean identical topology
// and up/down state, and equal request parameters mean identical
// filtering and pricing formulas, so any divergence between the two
// views is confined to residual values the journal (or a value sweep)
// can enumerate.
type wgFamily struct {
	wgStructure
	bandwidth float64
	demand    float64
}

func (k workGraphKey) family() wgFamily {
	return wgFamily{wgStructure: k.structure(), bandwidth: k.bandwidth, demand: k.demand}
}

// residualSnap records the residual values an entry's work graph was
// built from, so a later epoch can be verified value-by-value: a link
// whose (free, cap) pair round-tripped back to these exact bits prices
// to the exact same weight and needs no patch at all. Float residuals
// round-trip bit-exactly through most allocate/release cycles, which
// turns the bulk of epoch transitions into pure re-keys.
type residualSnap struct {
	linkFree []float64
	linkCap  []float64
	srvIDs   []graph.NodeID // sorted; position-aligned with srvFree
	srvFree  []float64
}

func captureResidualSnap(nw *sdn.Network) *residualSnap {
	m := nw.NumEdges()
	s := &residualSnap{
		linkFree: make([]float64, m),
		linkCap:  make([]float64, m),
	}
	for e := 0; e < m; e++ {
		s.linkFree[e] = nw.ResidualBandwidth(e)
		s.linkCap[e] = nw.BandwidthCap(e)
	}
	nw.VisitServers(func(v graph.NodeID) bool {
		s.srvIDs = append(s.srvIDs, v)
		s.srvFree = append(s.srvFree, nw.ResidualCompute(v))
		return true
	})
	return s
}

// serverIndex locates v's position in the sorted srvIDs, or -1.
func (s *residualSnap) serverIndex(v graph.NodeID) int {
	lo, hi := 0, len(s.srvIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.srvIDs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.srvIDs) && s.srvIDs[lo] == v {
		return lo
	}
	return -1
}

// wgEntry pairs a cached work graph with the shortest-path cache over
// it; both are immutable/concurrency-safe, so entries may be shared by
// any number of planner goroutines. snap is the residual state the
// entry was built against.
type wgEntry struct {
	key  workGraphKey
	w    *workGraph
	sp   *spCache
	snap *residualSnap
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
// shortest-path caches) across Plan calls, maintained incrementally:
//
//   - An exact (structVer, mutVer, params) hit returns the shared entry.
//   - A miss whose key differs from a cached entry's only by mutation
//     epoch is built by *patching* that base entry. The residual-change
//     journal (sdn.ResidualChangesSince) narrows the candidate set; each
//     candidate is value-verified against the base's residual snapshot.
//     Verified-unchanged epochs re-key the base entry as-is (zero new
//     state — the common case, since residual floats round-trip through
//     allocate/release cycles bit-exactly). A handful of re-priced
//     links clone only the weight array and rebuild the cached
//     shortest-path trees from the base's (spCache.repairedClone).
//     Membership flips or more than a quarter of the edges re-priced
//     rebuild from scratch.
//   - Any other miss is a cold build. When a cached entry shares the
//     key's structure and the request keeps exactly that entry's links
//     (on a lightly loaded substrate: all of them), the build re-prices
//     a weight clone of the entry's graph and shares its adjacency and
//     seed table (buildWorkGraphFrom); otherwise it inserts every edge
//     afresh under a new, empty seed table.
//   - Concurrent misses on one key are single-flighted.
//
// Every lookup, promotion, insertion and eviction is O(1): entries sit
// in a doubly linked MRU list behind a key index, and two more maps
// name the most recently used entry per structure (the template pick)
// and per family (the patch-base pick) — exactly the entries a
// front-to-back scan of the list would meet first.
//
// Patching preserves bit-identity with a cold build: unchanged edges
// keep weights computed from bit-identical (free, cap) inputs, changed
// edges are re-priced with the same formula a cold build would use,
// and every tree is either a fresh Dijkstra run or a reuse certified
// bit-identical to one (graph.ReuseInto), ties included.
type workGraphCache struct {
	// capacitated and weight fix the build recipe so patches re-price
	// edges exactly as buildWorkGraph would. Set once at planner
	// construction, before any concurrent use.
	capacitated bool
	weight      func(nw *sdn.Network, req *multicast.Request, e graph.EdgeID) float64

	mu       sync.Mutex
	index    map[workGraphKey]*wgNode
	mru, lru *wgNode // list ends; nil when empty
	byStruct map[wgStructure]*wgNode
	byFamily map[wgFamily]*wgNode
	inflight map[workGraphKey]*wgCall

	// Transition counters (under mu) — test and tuning instrumentation.
	hits    uint64 // exact key hits
	rekeys  uint64 // verified-unchanged aliases of a base entry
	patches uint64 // weight-patched / server-patched derivations
	builds  uint64 // cold builds, templated ones included
	// templated counts the cold builds that shared a cached entry's
	// adjacency (buildWorkGraphFrom).
	templated uint64
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
// thresholds still use the paper's pre-allocation weights. The recipe
// lives on the cache so incremental patches re-price edges exactly as a
// cold build would.
func (c *workGraphCache) priceMarginal(model CostModel) {
	c.capacitated = true
	c.weight = func(nw *sdn.Network, req *multicast.Request, e graph.EdgeID) float64 {
		utilAfter := 1 - (nw.ResidualBandwidth(e)-req.BandwidthMbps)/nw.BandwidthCap(e)
		return math.Pow(model.Beta, utilAfter) - 1
	}
}

// workGraphCacheSize bounds the LRU. Entries are cheap to retain
// (re-keyed epochs alias their base's graph and trees), and the engine
// benchmarks cycle through hundreds of distinct request parameter
// pairs, each its own key family — size the cache to keep a full
// request pool resident.
const workGraphCacheSize = 512

// wgMaxChangedFrac bounds patching: when more than this fraction of
// the work graph's edges changed residual class, a cold rebuild is
// cheaper than patch + tree reuse.
const wgMaxChangedFrac = 0.25

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
		c.byStruct = make(map[wgStructure]*wgNode)
		c.byFamily = make(map[wgFamily]*wgNode)
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
// reuse. The family and structure maps lose their pointer only when it
// aims at the victim: the global LRU entry is its family's (or
// structure's) MRU entry only when it is that group's last entry, so
// any other pointer still names a live, more recent entry.
func (c *workGraphCache) evict() *wgNode {
	n := c.lru
	c.unlink(n)
	delete(c.index, n.key)
	if f := n.key.family(); c.byFamily[f] == n {
		delete(c.byFamily, f)
	}
	if st := n.key.structure(); c.byStruct[st] == n {
		delete(c.byStruct, st)
	}
	*n = wgNode{}
	return n
}

// pushFront makes n the most recently used entry of the cache, its
// family and its structure.
func (c *workGraphCache) pushFront(n *wgNode) {
	n.newer, n.older = nil, c.mru
	if c.mru != nil {
		c.mru.newer = n
	} else {
		c.lru = n
	}
	c.mru = n
	c.byFamily[n.key.family()] = n
	c.byStruct[n.key.structure()] = n
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
func (c *workGraphCache) stats() (hits, rekeys, patches, builds uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.rekeys, c.patches, c.builds
}

// acquire returns the work graph and shortest-path cache for (nw, req),
// from cache, by incremental patch of a same-family entry, or by cold
// build — whichever the residual delta admits. Concurrent misses on
// one key share a single construction.
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
	// Patch from the most recently used same-family entry; cold-build
	// on the most recently used same-structure entry's adjacency.
	// Both are copied out under mu: an evicted node is reused.
	var base wgEntry
	var tmpl *workGraph
	haveBase := false
	if n := c.byFamily[key.family()]; n != nil {
		base, haveBase = n.wgEntry, true
	}
	if n := c.byStruct[key.structure()]; n != nil {
		tmpl = n.w
	}
	c.mu.Unlock()

	var (
		w    *workGraph
		sp   *spCache
		snap *residualSnap
		kind int // 0 rekey, 1 patch, 2 build, 3 templated build
	)
	if haveBase {
		w, sp, snap, kind = c.derive(nw, req, key, base)
	}
	if w == nil {
		weight := func(e graph.EdgeID) float64 { return c.weight(nw, req, e) }
		kind = 2
		if tmpl != nil {
			if w = buildWorkGraphFrom(tmpl, nw, req, c.capacitated, weight); w != nil {
				kind = 3
			}
		}
		if w == nil {
			w = buildWorkGraph(nw, req, c.capacitated, weight)
			w.seeds = make(spSeeds, w.g.NumNodes())
		}
		sp = newSPCache(w.g, w.seeds)
		snap = captureResidualSnap(nw)
	}

	c.mu.Lock()
	c.insert(wgEntry{key: key, w: w, sp: sp, snap: snap})
	switch kind {
	case 0:
		c.rekeys++
	case 1:
		c.patches++
	case 3:
		c.templated++
		c.builds++
	default:
		c.builds++
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	call.w, call.sp = w, sp
	close(call.done)
	return w, sp
}

// patchScratch pools the transient state of one derive call.
type patchScratch struct {
	links, srvs  []int32
	gen          uint32
	edgeStamp    []uint32
	srvStamp     []uint32
	changedLocal []graph.EdgeID
	changedW     []float64
	ws           graph.DijkstraWorkspace
	roots        spRootScratch
}

var patchPool = sync.Pool{New: func() any { return new(patchScratch) }}

func (ps *patchScratch) ensure(m, nsrv int) {
	if cap(ps.edgeStamp) < m {
		ps.edgeStamp = make([]uint32, m)
	} else {
		ps.edgeStamp = ps.edgeStamp[:m]
	}
	if cap(ps.srvStamp) < nsrv {
		ps.srvStamp = make([]uint32, nsrv)
	} else {
		ps.srvStamp = ps.srvStamp[:nsrv]
	}
	ps.gen++
	if ps.gen == 0 {
		clear(ps.edgeStamp)
		clear(ps.srvStamp)
		ps.gen = 1
	}
}

// derive attempts to produce key's entry from base by value-verified
// patching. It returns w == nil when the delta demands a cold rebuild
// (membership flips, damage above wgMaxChangedFrac, or a malformed
// cached tree).
func (c *workGraphCache) derive(
	nw *sdn.Network, req *multicast.Request, key workGraphKey, base wgEntry,
) (w *workGraph, sp *spCache, snap *residualSnap, kind int) {
	ps := patchPool.Get().(*patchScratch)
	defer patchPool.Put(ps)
	m := key.edges
	ps.ensure(m, len(base.snap.srvIDs))
	ps.changedLocal = ps.changedLocal[:0]
	ps.changedW = ps.changedW[:0]

	// Candidate changed IDs: the residual journal when the window is
	// retained, otherwise every link and server (a full value sweep is
	// still O(m) float compares — far below a rebuild's pricing cost).
	links, srvs, tracked := nw.ResidualChangesSince(base.key.mutVer, ps.links[:0], ps.srvs[:0])
	ps.links, ps.srvs = links[:0], srvs[:0]

	// Verify candidate links against the base snapshot.
	verifyEdge := func(e graph.EdgeID) bool {
		if ps.edgeStamp[e] == ps.gen {
			return true
		}
		ps.edgeStamp[e] = ps.gen
		free, capMbps := nw.ResidualBandwidth(e), nw.BandwidthCap(e)
		if free == base.snap.linkFree[e] && capMbps == base.snap.linkCap[e] {
			return true // bit-exact round-trip: same membership, same price
		}
		member := !c.capacitated || free >= key.bandwidth
		local := base.w.fromHost[e]
		if (local >= 0) != member {
			return false // residual class flipped: graph shape changes
		}
		if member {
			ps.changedLocal = append(ps.changedLocal, graph.EdgeID(local))
			ps.changedW = append(ps.changedW, c.weight(nw, req, e))
		}
		return true
	}
	if tracked {
		for _, e := range links {
			if e < 0 || int(e) >= m {
				return nil, nil, nil, 0
			}
			if !verifyEdge(graph.EdgeID(e)) {
				return nil, nil, nil, 0
			}
		}
	} else {
		for e := 0; e < m; e++ {
			if !verifyEdge(e) {
				return nil, nil, nil, 0
			}
		}
	}
	if len(ps.changedLocal) > int(wgMaxChangedFrac*float64(base.w.g.NumEdges())) {
		return nil, nil, nil, 0 // damage too broad: rebuild
	}

	// Verify candidate servers. Membership flips rebuild only the
	// eligible-server list — server state never enters the graph.
	srvChanged, srvFlip := false, false
	verifySrv := func(v graph.NodeID) bool {
		i := base.snap.serverIndex(v)
		if i < 0 {
			return false // unknown server: snapshot is stale, rebuild
		}
		if ps.srvStamp[i] == ps.gen {
			return true
		}
		ps.srvStamp[i] = ps.gen
		free := nw.ResidualCompute(v)
		baseFree := base.snap.srvFree[i]
		if free == baseFree {
			return true
		}
		srvChanged = true
		if c.capacitated && (free >= key.demand) != (baseFree >= key.demand) {
			srvFlip = true
		}
		return true
	}
	if tracked {
		for _, v := range srvs {
			if !verifySrv(graph.NodeID(v)) {
				return nil, nil, nil, 0
			}
		}
	} else {
		ok := true
		nw.VisitServers(func(v graph.NodeID) bool {
			ok = verifySrv(v)
			return ok
		})
		if !ok {
			return nil, nil, nil, 0
		}
	}

	if len(ps.changedLocal) == 0 && !srvChanged {
		// Verified bit-identical residual view: alias the base entry
		// under the new key, sharing graph, trees and snapshot.
		return base.w, base.sp, base.snap, 0
	}

	servers := base.w.servers
	if srvFlip {
		servers = eligibleServers(nw, req, c.capacitated)
	}

	if len(ps.changedLocal) == 0 {
		// Only server residuals moved: the graph and every cached tree
		// stay exactly valid — share them, refresh the snapshot.
		nw2 := &workGraph{g: base.w.g, toHost: base.w.toHost, fromHost: base.w.fromHost, servers: servers, seeds: base.w.seeds}
		return nw2, base.sp, captureResidualSnap(nw), 1
	}

	// Re-price the changed edges on a weight-only clone and reuse the
	// cached shortest-path trees on it.
	newG := base.w.g.WeightClone()
	for i, local := range ps.changedLocal {
		if err := newG.SetWeight(local, ps.changedW[i]); err != nil {
			return nil, nil, nil, 0
		}
	}
	newSP, err := base.sp.repairedClone(newG, base.w.seeds, &ps.ws, &ps.roots)
	if err != nil {
		return nil, nil, nil, 0
	}
	nw2 := &workGraph{g: newG, toHost: base.w.toHost, fromHost: base.w.fromHost, servers: servers, seeds: base.w.seeds}
	return nw2, newSP, captureResidualSnap(nw), 1
}
