package graph

import "fmt"

// Dynamic shortest-path repair (Ramalingam–Reps style). When a few
// edge weights of a graph change, a shortest-path tree computed before
// the change is mostly still correct: only the subtrees hanging below
// changed tree edges can have stale labels, plus any node a decreased
// edge now offers a shorter path to. RepairInto exploits that: it
// invalidates exactly the subtrees below changed tree edges, re-seeds
// the frontier from the valid boundary, and runs the standard Dijkstra
// loop over the (usually tiny) damaged region — falling back to a full
// DijkstraInto when the damage exceeds the caller's bound, where a
// fresh run is cheaper than a repair.
//
// Result identity: a valid node keeps its label, which is the hop-wise
// float sum along a tree path whose weights did not change — exactly
// the sum a fresh Dijkstra would re-accumulate. Re-labelled nodes get
// dist(parent) + w, again the fresh run's arithmetic. So whenever the
// new graph has unique shortest paths (the continuous random weights
// of this repository's work graphs make ties measure-zero), the
// repaired tree is bit-identical to a fresh DijkstraInto — distances,
// parents and depths. Under exact ties the distances still match
// bit-for-bit but the parent choice may differ; callers that need
// byte-identical trees under ties must rebuild.

// repairScratch owns the transient state of RepairInto: child lists of
// the old tree (array-linked), the invalidation stamp set and the
// damage worklist. It lives inside DijkstraWorkspace so repair reuses
// the same arena lifecycle as DijkstraInto.
type repairScratch struct {
	childHead []int32 // per node: first child in the old tree, -1 none
	childNext []int32 // per node: next sibling
	gen       uint32
	invGen    []uint32 // per node: generation last invalidated
	invalid   []NodeID // invalidated nodes, in discovery order
}

func (s *repairScratch) ensure(n int) {
	if cap(s.childHead) < n {
		s.childHead = make([]int32, n)
		s.childNext = make([]int32, n)
		s.invGen = make([]uint32, n)
	} else {
		s.childHead = s.childHead[:n]
		s.childNext = s.childNext[:n]
		s.invGen = s.invGen[:n]
	}
}

func (s *repairScratch) nextGen() uint32 {
	s.gen++
	if s.gen == 0 {
		for i := range s.invGen {
			s.invGen[i] = 0
		}
		s.gen = 1
	}
	return s.gen
}

// RepairInto recomputes single-source shortest paths on g into sp,
// starting from old — a tree previously computed on the same graph
// structure whose weights have since changed on exactly the edges
// listed in changed (increases and decreases both; listing an
// unchanged edge is harmless, omitting a changed one is a correctness
// bug). maxDamage bounds the repair: when more than that many nodes
// need re-labelling, RepairInto abandons the repair and runs a full
// DijkstraInto, reporting repaired=false. sp must not alias old; old
// is never written.
func (ws *DijkstraWorkspace) RepairInto(
	g *Graph, old *ShortestPaths, changed []EdgeID, maxDamage int, sp *ShortestPaths,
) (repaired bool, err error) {
	n := g.NumNodes()
	if old == nil || len(old.Dist) != n {
		return false, ws.DijkstraInto(g, pickSource(old), sp)
	}
	src := old.Source
	if src < 0 || src >= n {
		return false, fmt.Errorf("%w: source %d with n=%d", ErrNodeOutOfRange, src, n)
	}
	for _, e := range changed {
		if e < 0 || e >= g.NumEdges() {
			return false, fmt.Errorf("graph: repair: edge %d out of range (m=%d)", e, g.NumEdges())
		}
	}

	// Start from the old tree verbatim.
	sp.Source = src
	sp.resize(n)
	copy(sp.Dist, old.Dist)
	copy(sp.cols, old.cols) // same n, same column layout

	// Child lists of the old tree, array-linked.
	rs := &ws.repair
	rs.ensure(n)
	for v := 0; v < n; v++ {
		rs.childHead[v] = -1
	}
	for v := 0; v < n; v++ {
		if p := old.parentNode[v]; p >= 0 {
			rs.childNext[v] = rs.childHead[p]
			rs.childHead[p] = int32(v)
		}
	}

	// Invalidate the subtrees hanging below changed tree edges. A tree
	// edge is the parentEdge of exactly one endpoint — that endpoint
	// roots an invalid subtree.
	gen := rs.nextGen()
	rs.invalid = rs.invalid[:0]
	mark := func(v NodeID) bool {
		if rs.invGen[v] == gen {
			return true
		}
		rs.invGen[v] = gen
		rs.invalid = append(rs.invalid, v)
		return len(rs.invalid) <= maxDamage
	}
	for _, e := range changed {
		ed := g.Edge(e)
		for _, v := range [2]NodeID{ed.U, ed.V} {
			if old.parentEdge[v] != int32(e) || rs.invGen[v] == gen {
				continue
			}
			if !mark(v) {
				return false, ws.DijkstraInto(g, src, sp)
			}
		}
	}
	for i := 0; i < len(rs.invalid); i++ { // worklist DFS over old-tree children
		for c := rs.childHead[rs.invalid[i]]; c != -1; c = rs.childNext[c] {
			if !mark(NodeID(c)) {
				return false, ws.DijkstraInto(g, src, sp)
			}
		}
	}
	if len(rs.invalid) == 0 && len(changed) == 0 {
		return true, nil
	}
	for _, v := range rs.invalid {
		sp.Dist[v] = Infinity
		sp.parentNode[v] = -1
		sp.parentEdge[v] = -1
		sp.depth[v] = -1
	}

	// Seed the frontier: valid-boundary relaxations into the invalid
	// region, plus the changed edges themselves between valid
	// endpoints (a decrease may open a shorter path to a valid node;
	// an increase on a non-tree edge never changes a valid label).
	h := &ws.heap
	h.reset(n)
	relax := func(from, to NodeID, id EdgeID, w float64) {
		if nd := sp.Dist[from] + w; nd < sp.Dist[to] {
			sp.Dist[to] = nd
			sp.parentNode[to] = int32(from)
			sp.parentEdge[to] = int32(id)
			sp.depth[to] = sp.depth[from] + 1
			h.PushOrDecrease(to, nd)
		}
	}
	for _, x := range rs.invalid {
		for _, he := range g.adj[x] {
			if rs.invGen[he.to] != gen {
				relax(he.to, x, he.id, g.edges[he.id].W)
			}
		}
	}
	for _, e := range changed {
		ed := g.Edge(e)
		if rs.invGen[ed.U] == gen || rs.invGen[ed.V] == gen {
			continue // covered by the boundary scan / main loop
		}
		relax(ed.U, ed.V, e, ed.W)
		relax(ed.V, ed.U, e, ed.W)
	}

	// Standard Dijkstra over the seeded frontier. Labels of valid
	// nodes are achievable upper bounds, so the loop only ever lowers
	// them along real paths; re-insertion after a pop (the indexed
	// heap permits it) handles the rare cascade where a valid label
	// improves after a dependent node was already popped. As in
	// DijkstraInto, a queued key always equals its node's label.
	for h.Len() > 0 {
		u, _ := h.Pop()
		for _, he := range g.adj[u] {
			relax(u, he.to, he.id, g.edges[he.id].W)
		}
	}
	return true, nil
}

// pickSource tolerates a nil old tree in the fallback path.
func pickSource(old *ShortestPaths) NodeID {
	if old == nil {
		return -1
	}
	return old.Source
}
