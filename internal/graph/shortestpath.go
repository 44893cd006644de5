package graph

import "fmt"

// ShortestPaths holds the result of a single-source shortest-path
// computation: per-node distances, the predecessor arcs of a
// shortest-path tree rooted at Source, and per-node tree depths (hop
// counts) so path extraction can preallocate exactly.
//
// The three tree columns are int32 and carved from one backing slice,
// so a tree costs two arrays (Dist and the columns): the planners build
// and cache one tree per terminal per residual state, and on a cold
// plan tree arrays are a large share of all bytes allocated.
type ShortestPaths struct {
	Source     NodeID
	Dist       []float64 // Dist[v] == Infinity when v is unreachable
	parentNode []int32   // -1 at the source and at unreachable nodes
	parentEdge []int32   // -1 likewise
	depth      []int32   // hops from the source; -1 at unreachable nodes
	cols       []int32   // backing of the three columns above
}

// resize points sp's arrays at n nodes, reusing their storage when it
// is large enough. Contents are unspecified afterwards.
func (sp *ShortestPaths) resize(n int) {
	if cap(sp.Dist) < n {
		sp.Dist = make([]float64, n)
	} else {
		sp.Dist = sp.Dist[:n]
	}
	if cap(sp.cols) < 3*n {
		sp.cols = make([]int32, 3*n)
	} else {
		sp.cols = sp.cols[:3*n]
	}
	sp.parentNode = sp.cols[:n:n]
	sp.parentEdge = sp.cols[n : 2*n : 2*n]
	sp.depth = sp.cols[2*n:]
}

// Dijkstra computes single-source shortest paths from src over the
// current edge weights. All weights must be non-negative (enforced at
// insertion time).
func Dijkstra(g *Graph, src NodeID) (*ShortestPaths, error) {
	var ws DijkstraWorkspace
	sp := new(ShortestPaths)
	if err := ws.DijkstraInto(g, src, sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// DijkstraWorkspace owns the transient state of a Dijkstra run (the
// indexed heap arena) and of a ReuseInto run, so repeated searches
// reuse one allocation set.
// The zero value is ready to use. A workspace is not safe for
// concurrent use; give each goroutine its own.
type DijkstraWorkspace struct {
	heap  indexedHeap
	reuse reuseScratch // ReuseInto's depth order and node state
}

// DijkstraInto computes single-source shortest paths from src into sp,
// reusing both sp's result arrays and the workspace's heap arena.
// The filled sp is independent of the workspace afterwards: back-to-back
// DijkstraInto calls on different roots (into different sp targets)
// produce results identical to fresh Dijkstra calls.
func (ws *DijkstraWorkspace) DijkstraInto(g *Graph, src NodeID, sp *ShortestPaths) error {
	if src < 0 || src >= g.NumNodes() {
		return fmt.Errorf("%w: source %d with n=%d", ErrNodeOutOfRange, src, g.NumNodes())
	}
	n := g.NumNodes()
	sp.Source = src
	sp.resize(n)
	dist, parentNode, parentEdge, depth := sp.Dist, sp.parentNode, sp.parentEdge, sp.depth
	for i := range dist {
		dist[i] = Infinity
	}
	for i := range sp.cols {
		sp.cols[i] = -1
	}
	dist[src] = 0
	depth[src] = 0
	h := &ws.heap
	h.reset(n)
	h.PushOrDecrease(src, 0)
	// Under decrease-key every node is queued at most once at a time
	// with its current label, so a popped key always equals Dist[u]:
	// no stale-entry check.
	adj, edges := g.adj, g.edges
	for h.Len() > 0 {
		u, du := h.Pop()
		d1 := depth[u] + 1
		for _, he := range adj[u] {
			to := he.to
			if nd := du + edges[he.id].W; nd < dist[to] {
				dist[to] = nd
				parentNode[to] = int32(u)
				parentEdge[to] = int32(he.id)
				depth[to] = d1
				h.PushOrDecrease(to, nd)
			}
		}
	}
	return nil
}

// Reachable reports whether v was reached from the source.
func (sp *ShortestPaths) Reachable(v NodeID) bool { return sp.Dist[v] < Infinity }

// Parent returns the predecessor node of v in the shortest-path tree,
// or -1 for the source and unreachable nodes.
func (sp *ShortestPaths) Parent(v NodeID) NodeID { return NodeID(sp.parentNode[v]) }

// Depth returns the hop count of the tree path source→v, or -1 when v
// is unreachable.
func (sp *ShortestPaths) Depth(v NodeID) int { return int(sp.depth[v]) }

// PathTo returns the node sequence of a shortest path from the source
// to v (inclusive of both endpoints) together with the edge IDs used,
// or ok=false when v is unreachable. len(edges) == len(nodes)-1. The
// tracked depth sizes both slices exactly — no append growth.
func (sp *ShortestPaths) PathTo(v NodeID) (nodes []NodeID, edges []EdgeID, ok bool) {
	if v < 0 || v >= len(sp.Dist) || !sp.Reachable(v) {
		return nil, nil, false
	}
	d := int(sp.depth[v])
	nodes = make([]NodeID, d+1)
	edges = make([]EdgeID, d)
	at := v
	for i := d; i > 0; i-- {
		nodes[i] = at
		edges[i-1] = EdgeID(sp.parentEdge[at])
		at = NodeID(sp.parentNode[at])
	}
	nodes[0] = at
	return nodes, edges, true
}

// VisitPathEdges calls fn with every edge on the shortest path
// source→v, walking from v back to the source, and reports whether v
// is reachable. If fn returns false, the walk stops early. It performs
// no allocation — the union-building steps of Steiner construction use
// it where only the edge set matters.
func (sp *ShortestPaths) VisitPathEdges(v NodeID, fn func(EdgeID) bool) bool {
	if v < 0 || v >= len(sp.Dist) || !sp.Reachable(v) {
		return false
	}
	for at := v; sp.parentEdge[at] != -1; at = NodeID(sp.parentNode[at]) {
		if !fn(EdgeID(sp.parentEdge[at])) {
			return true
		}
	}
	return true
}

// BellmanFord computes single-source shortest-path distances by edge
// relaxation. It is O(n·m) and exists as an independent oracle for
// property-testing Dijkstra; production code should use Dijkstra.
func BellmanFord(g *Graph, src NodeID) ([]float64, error) {
	if src < 0 || src >= g.NumNodes() {
		return nil, fmt.Errorf("%w: source %d with n=%d", ErrNodeOutOfRange, src, g.NumNodes())
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	for iter := 0; iter < n-1; iter++ {
		changed := false
		for id := 0; id < g.NumEdges(); id++ {
			e := g.Edge(id)
			if dist[e.U] < Infinity && dist[e.U]+e.W < dist[e.V] {
				dist[e.V] = dist[e.U] + e.W
				changed = true
			}
			if dist[e.V] < Infinity && dist[e.V]+e.W < dist[e.U] {
				dist[e.U] = dist[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist, nil
}
