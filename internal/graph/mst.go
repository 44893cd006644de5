package graph

import (
	"errors"
	"sort"
)

// ErrDisconnected is returned by spanning-tree routines when the graph
// (restricted to the relevant nodes) is not connected.
var ErrDisconnected = errors.New("graph: disconnected")

// MST holds a minimum spanning tree as a set of edge IDs of the host
// graph plus the total weight.
type MST struct {
	EdgeIDs []EdgeID
	Weight  float64
	// Unique is set by Prim when every step's minimum crossing edge was
	// strictly lighter than every other edge crossing the same cut. Each
	// such edge then lies in every minimum spanning tree (cut property),
	// so the tree is the graph's only one and any MST algorithm returns
	// its edge set. A false value proves nothing: Prim clears it on any
	// equal key, even one a later offer undercuts. Kruskal and a
	// disconnected Prim leave it false.
	Unique bool
}

// KruskalMST computes a minimum spanning forest of g and returns it as
// an MST. When g is connected the result is a spanning tree; when it is
// not, ErrDisconnected is returned alongside the forest so callers that
// tolerate forests can still use it.
func KruskalMST(g *Graph) (*MST, error) {
	var ws MSTWorkspace
	out := &MST{}
	err := ws.Kruskal(g, out)
	return out, err
}

// PrimMST computes a minimum spanning tree of g starting from node 0
// using the indexed heap. Returns ErrDisconnected when g is not connected
// (the partial tree covering node 0's component is still returned).
func PrimMST(g *Graph) (*MST, error) {
	var ws MSTWorkspace
	out := &MST{}
	err := ws.Prim(g, out)
	return out, err
}

// MSTWorkspace owns the transient state of Prim and Kruskal runs so
// repeated spanning-tree computations (one or two per Steiner candidate
// on the planner hot path) reuse one allocation set. The zero value is
// ready to use; a workspace is not safe for concurrent use. Results are
// identical to PrimMST/KruskalMST — the workspace only changes where
// the scratch lives.
type MSTWorkspace struct {
	inTree   []bool
	bestEdge []EdgeID
	heap     indexedHeap
	order    []EdgeID
	dsu      DisjointSet
}

// Kruskal computes a minimum spanning forest of g into out (out.EdgeIDs
// is truncated and reused). Error behaviour matches KruskalMST.
func (ws *MSTWorkspace) Kruskal(g *Graph, out *MST) error {
	m := g.NumEdges()
	if cap(ws.order) < m {
		ws.order = make([]EdgeID, m)
	}
	order := ws.order[:m]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return g.Weight(order[i]) < g.Weight(order[j])
	})
	ws.dsu.Reset(g.NumNodes())
	out.EdgeIDs = out.EdgeIDs[:0]
	out.Weight = 0
	out.Unique = false
	for _, id := range order {
		e := g.Edge(id)
		if ws.dsu.Union(e.U, e.V) {
			out.EdgeIDs = append(out.EdgeIDs, id)
			out.Weight += e.W
		}
	}
	if g.NumNodes() > 0 && ws.dsu.Count() != 1 {
		return ErrDisconnected
	}
	return nil
}

// Prim computes a minimum spanning tree of g starting from node 0 into
// out (out.EdgeIDs is truncated and reused) and reports in out.Unique
// whether the run certified it as g's only one. Error behaviour matches
// PrimMST.
//
// The queue holds, for every node outside the tree, the lightest edge
// from the tree to it, so the pop is the cut's minimum crossing edge. It
// was unique when no other node's key equals it (the new top after the
// pop) and no second edge into the popped node matched its key (an
// offer equal to a queued key, which the queue otherwise ignores).
func (ws *MSTWorkspace) Prim(g *Graph, out *MST) error {
	n := g.NumNodes()
	out.EdgeIDs = out.EdgeIDs[:0]
	out.Weight = 0
	out.Unique = true
	if n == 0 {
		return nil
	}
	if cap(ws.inTree) < n {
		ws.inTree = make([]bool, n)
		ws.bestEdge = make([]EdgeID, n)
	}
	inTree := ws.inTree[:n]
	bestEdge := ws.bestEdge[:n]
	for i := 0; i < n; i++ {
		inTree[i] = false
		bestEdge[i] = -1
	}
	h := &ws.heap
	h.reset(n)
	h.PushOrDecrease(0, 0)
	covered := 0
	for h.Len() > 0 {
		v, k := h.Pop()
		if inTree[v] {
			continue
		}
		if h.Len() > 0 && h.items[0].key == k {
			out.Unique = false
		}
		inTree[v] = true
		covered++
		if e := bestEdge[v]; e != -1 {
			out.EdgeIDs = append(out.EdgeIDs, e)
			out.Weight += g.Weight(e)
		}
		for _, he := range g.adj[v] {
			if inTree[he.to] {
				continue
			}
			changed, tie := h.PushOrDecrease(he.to, g.edges[he.id].W)
			if changed {
				bestEdge[he.to] = he.id
			} else if tie {
				out.Unique = false
			}
		}
	}
	if covered != n {
		out.Unique = false
		return ErrDisconnected
	}
	return nil
}
