package core

import (
	"fmt"

	"nfvmcast/internal/graph"
)

// rootedView is the planner's reusable stand-in for graph.RootedTree:
// a rooted view over a tree-shaped edge subset of a work graph, held in
// stamp-reset arrays owned by a PlanArena so that rooting one Steiner
// tree per candidate server allocates nothing. It accepts exactly the
// edge sets graph.NewRootedTree accepts (and fails with the same
// ErrNotATree) and answers LCA by walking parents — the trees are a few
// dozen edges, so a lifting table costs more to build than it saves.
// The zero value is ready to use; root replaces the previous tree.
type rootedView struct {
	gen        uint64   // never wraps: 2^64 rootings outlast any process
	edgeGen    []uint64 // edge -> generation it was last a tree edge
	seen       []uint64 // node -> generation the DFS last reached it
	parentNode []graph.NodeID
	parentEdge []graph.EdgeID
	depth      []int32
	stack      []graph.NodeID
}

// root roots the tree formed by edgeIDs (edges of g) at r. The edge set
// must be acyclic and connected and must contain r; an isolated root
// with zero edges is also valid.
func (t *rootedView) root(g *graph.Graph, edgeIDs []graph.EdgeID, r graph.NodeID) error {
	n, m := g.NumNodes(), g.NumEdges()
	if r < 0 || r >= n {
		return fmt.Errorf("%w: root %d with n=%d", graph.ErrNodeOutOfRange, r, n)
	}
	if len(t.seen) < n || len(t.edgeGen) < m {
		t.edgeGen = make([]uint64, m)
		t.seen = make([]uint64, n)
		t.parentNode = make([]graph.NodeID, n)
		t.parentEdge = make([]graph.EdgeID, n)
		t.depth = make([]int32, n)
	}
	t.gen++
	gen := t.gen
	for _, id := range edgeIDs {
		t.edgeGen[id] = gen
	}

	// Iterative DFS from the root along stamped edges. Each edge that
	// discovers a node is counted; an edge closing a cycle (or repeated
	// in edgeIDs) discovers nothing and an edge the root cannot reach is
	// never seen, so the set is a tree containing r exactly when every
	// edge was counted — graph.NewRootedTree's three checks in one.
	t.seen[r] = gen
	t.parentNode[r], t.parentEdge[r], t.depth[r] = -1, -1, 0
	t.stack = append(t.stack[:0], r)
	discovered := 0
	for len(t.stack) > 0 {
		v := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		g.VisitNeighbors(v, func(to graph.NodeID, id graph.EdgeID, _ float64) bool {
			if t.edgeGen[id] == gen && t.seen[to] != gen {
				t.seen[to] = gen
				t.parentNode[to], t.parentEdge[to], t.depth[to] = v, id, t.depth[v]+1
				discovered++
				t.stack = append(t.stack, to)
			}
			return true
		})
	}
	if discovered != len(edgeIDs) {
		return fmt.Errorf("%w: %d of %d edges close a cycle or are unreachable from root %d",
			graph.ErrNotATree, len(edgeIDs)-discovered, len(edgeIDs), r)
	}
	return nil
}

// inTree reports whether v belongs to the tree last rooted.
func (t *rootedView) inTree(v graph.NodeID) bool {
	return v >= 0 && v < len(t.seen) && t.seen[v] == t.gen
}

// lca returns the lowest common ancestor of u and v, or false when
// either lies outside the tree.
func (t *rootedView) lca(u, v graph.NodeID) (graph.NodeID, bool) {
	if !t.inTree(u) || !t.inTree(v) {
		return 0, false
	}
	for t.depth[u] > t.depth[v] {
		u = t.parentNode[u]
	}
	for t.depth[v] > t.depth[u] {
		v = t.parentNode[v]
	}
	for u != v {
		u, v = t.parentNode[u], t.parentNode[v]
	}
	return u, true
}
