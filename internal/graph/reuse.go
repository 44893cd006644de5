package graph

import (
	"fmt"
	"sync/atomic"
)

// Shortest-path tree reuse. Consecutive requests re-price every link of
// a work graph, yet on a lightly loaded substrate the tree one request
// built from a root differs from the next request's in a handful of
// nodes. ReuseInto takes such an old tree, re-prices it under the
// graph's current weights, corrects every label that can still be
// strictly improved, and then certifies the result instead of trusting
// it.
//
// Why a certified result is bit-identical to DijkstraInto. Write
// fl(a+w) for the rounded float sum; for w >= 0 it is monotone in a and
// never below a. Dijkstra's labels D therefore satisfy
// D(v) <= fl(D(u)+w) on every arc, so D(v) is at most the left-to-right
// float cost of every path from the source to v. The kernel's labels L
// are the float costs of tree paths (tree arcs are exact:
// L(v) == fl(L(p)+w)), so L >= D; and L(v) <= fl(L(u)+w) on every arc,
// so induction along Dijkstra's own tree gives L <= D. Hence L == D bit
// for bit. Dijkstra's parent arc (u, v) satisfies fl(D(u)+w) == D(v),
// and certification found every non-tree arc strictly worse, so the
// tree arc is the only arc with that property: parents and parent
// edges agree too, whatever order the heap breaks ties in, and depths
// follow from the parents. A tie anywhere (equal prices, zero weights)
// fails certification and the caller runs DijkstraInto.

// Seed tables. The tree last built from a root is the natural old tree
// for the next one, so a graph keeps, per root, the tree most recently
// built from it on any graph sharing its adjacency: weight clones
// re-price the same structure, which is all ReuseInto asks of an old
// tree. The table belongs to that adjacency. WeightClone shares it;
// Clone, CopyInto, Reset, AddNode and AddEdge leave the graph with
// none, so a seed never reaches ReuseInto on a structure it was not
// built on (where ReuseInto answers with an error, not a refusal).
// Slots hold immutable trees and are read and written without locks.
type seedTable struct {
	roots []atomic.Pointer[ShortestPaths]
}

// seedTable returns g's seed table, creating it when g has none.
// Concurrent callers get the same table.
func (g *Graph) seedTable() *seedTable {
	if t := g.seeds.Load(); t != nil {
		return t
	}
	t := &seedTable{roots: make([]atomic.Pointer[ShortestPaths], g.n)}
	if g.seeds.CompareAndSwap(nil, t) {
		return t
	}
	return g.seeds.Load()
}

// dropSeeds detaches g from its seed table.
func (g *Graph) dropSeeds() {
	if g.seeds.Load() != nil {
		g.seeds.Store(nil)
	}
}

// SeededTree builds the shortest-path tree rooted at src on g in a new
// ShortestPaths and publishes it as src's seed in g's seed table,
// creating the table when g has none. With reuse and a seed for src, it
// first tries ReuseInto from the seed; otherwise, or when the reuse
// does not certify, it runs DijkstraInto. Either way the tree is
// bit-identical to DijkstraInto's. seeded reports that the table held a
// seed for src, and reused that the tree was built from it. The
// published tree must never be written.
//
// SeededTree may run concurrently on any graphs sharing a table, each
// call with its own workspace; the last tree published for a root
// wins.
func (ws *DijkstraWorkspace) SeededTree(g *Graph, src NodeID, reuse bool) (sp *ShortestPaths, seeded, reused bool, err error) {
	if src < 0 || src >= g.n {
		return nil, false, false, fmt.Errorf("%w: source %d with n=%d", ErrNodeOutOfRange, src, g.n)
	}
	slot := &g.seedTable().roots[src]
	seed := slot.Load()
	sp = new(ShortestPaths)
	if seed != nil && reuse {
		if reused, err = ws.ReuseInto(g, seed, sp); err != nil {
			return nil, true, false, err
		}
	}
	if !reused {
		if err = ws.DijkstraInto(g, src, sp); err != nil {
			return nil, seed != nil, false, err
		}
	}
	slot.Store(sp)
	return sp, seed != nil, reused, nil
}

// reuseScratch owns ReuseInto's transient state: the depth-bucketed
// order of the old tree, per-node state bits, and the relabelled and
// tied nodes. It lives inside DijkstraWorkspace beside the heap.
type reuseScratch struct {
	buckets    []int32 // per depth: start of its run in order
	order      []int32 // old tree's nodes below the root, by old depth
	state      []uint8 // per node: reuse* bits, cleared every run
	relabelled []int32 // nodes the correction lowered
	ties       []int32 // nodes a non-tree arc tied in the scan
}

// Node state bits of one ReuseInto run.
const (
	reuseRelabelled uint8 = 1 << iota
	reuseTie
)

func (s *reuseScratch) ensure(n int) {
	if cap(s.order) < n {
		s.buckets = make([]int32, n+1)
		s.order = make([]int32, n)
		s.state = make([]uint8, n)
	}
	s.buckets = s.buckets[:n+1]
	s.state = s.state[:n]
	clear(s.buckets)
	clear(s.state)
	s.relabelled = s.relabelled[:0]
	s.ties = s.ties[:0]
}

// ReuseInto computes the shortest-path tree from old.Source on g into
// sp, starting from old: a tree computed earlier on a graph with g's
// structure (the same nodes and edge IDs), under any weights. sp must
// not alias old; old is never written.
//
// With ok, sp is bit-identical to DijkstraInto(g, old.Source, sp):
// distances, parents, parent edges and depths. With !ok — a shortest
// path tie, more than a quarter of the nodes relabelled (where a fresh
// run is the cheaper way), or an old tree whose depth column does not
// order it — sp's contents are unspecified and the caller runs
// DijkstraInto. An old tree that cannot belong to g is refused with an
// error: wrong size, source out of range, a depth out of range, or a
// parent edge out of range or not joining its node to its parent.
func (ws *DijkstraWorkspace) ReuseInto(g *Graph, old, sp *ShortestPaths) (ok bool, err error) {
	n := g.NumNodes()
	if old == nil {
		return false, fmt.Errorf("graph: reuse: nil old tree")
	}
	if len(old.Dist) != n || len(old.cols) != 3*n {
		return false, fmt.Errorf("graph: reuse: old tree has %d nodes, graph %d", len(old.Dist), n)
	}
	src := old.Source
	if src < 0 || src >= n {
		return false, fmt.Errorf("%w: source %d with n=%d", ErrNodeOutOfRange, src, n)
	}
	rs := &ws.reuse
	rs.ensure(n)
	edges, adj := g.edges, g.adj
	m := int32(len(edges))

	// Take the old tree's columns, range-check them, and bucket the
	// nodes below the root by old depth.
	sp.Source = src
	sp.resize(n)
	copy(sp.cols, old.cols)
	dist, parentNode, parentEdge, depth := sp.Dist, sp.parentNode, sp.parentEdge, sp.depth
	for v := 0; v < n; v++ {
		p, e, d := parentNode[v], parentEdge[v], depth[v]
		if d < -1 || int(d) >= n {
			return false, fmt.Errorf("graph: reuse: node %d has depth %d with n=%d", v, d, n)
		}
		if (p == -1) != (e == -1) || p < -1 || int(p) >= n || e < -1 || e >= m {
			return false, fmt.Errorf("graph: reuse: node %d has parent %d over edge %d (n=%d, m=%d)", v, p, e, n, m)
		}
		if e >= 0 && v != src && d > 0 {
			rs.buckets[d]++
		}
	}
	at := int32(0)
	for d := range rs.buckets {
		at, rs.buckets[d] = at+rs.buckets[d], at
	}
	order := rs.order[:at]
	for v := 0; v < n; v++ {
		e, d := parentEdge[v], depth[v]
		if e >= 0 && v != src && d > 0 {
			order[rs.buckets[d]] = int32(v)
			rs.buckets[d]++
			continue
		}
		if e >= 0 && !joins(edges[e], v, int(parentNode[v])) {
			return false, fmt.Errorf("graph: reuse: parent edge %d of node %d does not join it to %d", e, v, parentNode[v])
		}
		dist[v], parentNode[v], parentEdge[v], depth[v] = Infinity, -1, -1, -1
	}
	dist[src], depth[src] = 0, 0

	// Re-price the old tree top-down. Each node's parent must sit one
	// level above it, so its label is final when the child reads it:
	// every tree arc is exact and every label is the cost of a real
	// path, an upper bound on Dijkstra's.
	for _, v := range order {
		p, e := parentNode[v], parentEdge[v]
		if !joins(edges[e], int(v), int(p)) {
			return false, fmt.Errorf("graph: reuse: parent edge %d of node %d does not join it to %d", e, v, p)
		}
		if depth[p] != depth[v]-1 {
			return false, nil // the depth column does not order the tree
		}
		if dist[v] = dist[p] + edges[e].W; dist[v] >= Infinity {
			return false, nil // Dijkstra leaves v unreached
		}
	}

	// Correct every label an arc can strictly improve, Dijkstra-style
	// from the upper bounds: one pass over the edge array seeds the heap
	// with the violated arcs, then nodes settle in key order. Popped
	// keys never decrease, so a node enters the heap at most once and
	// the relabelled nodes are the damage.
	h := &ws.heap
	h.reset(n)
	state := rs.state
	maxDamage := n / 4
	relabel := func(u, to int, id EdgeID, nd float64) bool {
		if state[to]&reuseRelabelled == 0 {
			if len(rs.relabelled) == maxDamage {
				return false
			}
			state[to] |= reuseRelabelled
			rs.relabelled = append(rs.relabelled, int32(to))
		}
		dist[to] = nd
		parentNode[to] = int32(u)
		parentEdge[to] = int32(id)
		depth[to] = depth[u] + 1
		h.PushOrDecrease(to, nd)
		return true
	}
	// arc relaxes u->to over edge id of weight w and records a tie a
	// non-tree arc makes: unless the correction lowers to, the tie
	// stands.
	arc := func(u, to int, id EdgeID, w float64) bool {
		du := dist[u]
		if du >= Infinity {
			return true
		}
		nd, dt := du+w, dist[to]
		if nd > dt {
			return true
		}
		if nd < dt {
			return relabel(u, to, id, nd)
		}
		if parentEdge[to] != int32(id) && state[to]&reuseTie == 0 {
			state[to] |= reuseTie
			rs.ties = append(rs.ties, int32(to))
		}
		return true
	}
	// The scan walks the edge array once and tests both arcs of an edge
	// together, off any data-dependent branch: nearly every arc is
	// strictly worse than the label it points at, or is its head's tree
	// arc, and only the others go through arc. The edge order cannot
	// move the verdict. A node relabels if and only if its final label
	// is below its re-priced one, which no order changes, and an edge
	// between two nodes the correction leaves alone is tested on their
	// final labels whenever the scan reaches it. A tree arc needs no
	// test in its own direction: re-pricing made it exact, and its tail
	// can only fall by relabel, whose heap entry relaxes all of the
	// tail's arcs in the settle below. Its reverse arc is tested, which
	// is what rejects zero-weight and absorbed tree edges.
	for i, ed := range edges {
		u, v, w := ed.U, ed.V, ed.W
		if u == v {
			continue // self-loops never parent
		}
		du, dv, id := dist[u], dist[v], int32(i)
		pu, pv := parentEdge[u], parentEdge[v]
		if (b2u(du+w > dv)|b2u(pv == id))&(b2u(dv+w > du)|b2u(pu == id)) != 0 {
			continue
		}
		if !arc(u, v, i, w) || !arc(v, u, i, w) {
			return false, nil
		}
	}
	// A popped node is final, so each tree child it does not relabel
	// must sit one level below it. Such a child keeps its label (exact:
	// labels only fall, and a strictly lower parent label would have
	// relabelled it) and its subtree, with depths only this check
	// vouches for.
	for h.Len() > 0 {
		u, du := h.Pop()
		d1 := depth[u] + 1
		for _, he := range adj[u] {
			to := he.to
			if nd := du + edges[he.id].W; nd < dist[to] {
				if !relabel(u, to, he.id, nd) {
					return false, nil
				}
			} else if to != u && parentEdge[to] == int32(he.id) && depth[to] != d1 {
				return false, nil
			}
		}
	}

	// Certify that every non-tree arc is strictly worse. The scan
	// checked the arcs between nodes the correction left alone; check
	// the arcs at relabelled nodes here, both ways.
	for _, x := range rs.ties {
		if state[x]&reuseRelabelled == 0 {
			return false, nil
		}
	}
	for _, x := range rs.relabelled {
		dx := dist[x]
		for _, he := range adj[x] {
			y, w := he.to, edges[he.id].W
			if y == int(x) {
				continue // self-loops never parent
			}
			if parentEdge[y] != int32(he.id) && !(dx+w > dist[y]) ||
				parentEdge[x] != int32(he.id) && !(dist[y]+w > dx) {
				return false, nil
			}
		}
	}
	return true, nil
}

// b2u is 1 for true and 0 for false. The compiler sets it from the
// flags, and a bitwise mix of b2u terms costs no branch.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// joins reports whether ed joins v to p. The parent may be either
// endpoint; testing both at once keeps the answer off a data-dependent
// branch. Node IDs are below the graph's size, so the product cannot
// overflow.
func joins(ed Edge, v, p int) bool {
	return ed.U^ed.V == v^p && (ed.U-v)*(ed.U-p) == 0
}
