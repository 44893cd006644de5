// Package graph provides the weighted-graph substrate used throughout
// nfvmcast: adjacency-list graphs, shortest paths, minimum spanning
// trees, the Kou–Markowsky–Berman Steiner-tree approximation, rooted
// trees with lowest-common-ancestor queries, and the supporting data
// structures (indexed binary heap, union–find).
//
// Graphs are undirected and weighted. Nodes are dense integers in
// [0, N). Edge weights live in a single slice indexed by edge ID so
// that algorithms which re-weight a graph between runs (the online
// admission algorithms re-price every link per request) can do so in
// O(1) per edge without rebuilding adjacency.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a node in a Graph. Valid IDs are 0 <= id < NumNodes.
type NodeID = int

// EdgeID identifies an edge in a Graph. Valid IDs are 0 <= id < NumEdges.
type EdgeID = int

// Infinity is the distance reported for unreachable nodes.
const Infinity = math.MaxFloat64

var (
	// ErrNodeOutOfRange is returned when a node ID is outside [0, N).
	ErrNodeOutOfRange = errors.New("graph: node out of range")
	// ErrNegativeWeight is returned when an edge weight is negative.
	ErrNegativeWeight = errors.New("graph: negative edge weight")
)

// Edge is an undirected edge between U and V with weight W.
type Edge struct {
	U, V NodeID
	W    float64
}

// halfEdge is one directed arc of an undirected edge as stored in the
// adjacency list. The weight is looked up through the edge ID so that
// SetWeight is visible to every traversal immediately.
type halfEdge struct {
	to NodeID
	id EdgeID
}

// Graph is an undirected weighted graph over a fixed node set.
// The zero value is not usable; construct with New.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]halfEdge
	// seeds is the adjacency's seed table (see SeededTree): shared
	// with weight clones, created on first use, and dropped by every
	// call that rebuilds or extends the adjacency.
	seeds atomic.Pointer[seedTable]
}

// New returns an empty graph over n nodes (0..n-1).
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:   n,
		adj: make([][]halfEdge, n),
	}
}

// Clone returns a deep copy of g. Mutating the clone (including edge
// weights) does not affect g. The clone starts without seeds: it owns
// a new adjacency, which a later AddEdge may change.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:     g.n,
		edges: make([]Edge, len(g.edges)),
		adj:   make([][]halfEdge, g.n),
	}
	copy(c.edges, g.edges)
	for v, hs := range g.adj {
		c.adj[v] = make([]halfEdge, len(hs))
		copy(c.adj[v], hs)
	}
	return c
}

// CopyInto overwrites dst with a deep copy of g, reusing dst's edge
// and adjacency storage where capacities allow. After the call dst is
// independent of g (mutating either does not affect the other) and
// identical to what Clone would return. It exists for snapshot loops
// (the admission engine re-clones the network per planning slot) that
// would otherwise reallocate the whole adjacency structure per copy.
// dst loses its seeds, which may describe another structure.
func (g *Graph) CopyInto(dst *Graph) {
	dst.dropSeeds()
	dst.n = g.n
	if cap(dst.edges) < len(g.edges) {
		dst.edges = make([]Edge, len(g.edges))
	} else {
		dst.edges = dst.edges[:len(g.edges)]
	}
	copy(dst.edges, g.edges)
	if cap(dst.adj) < g.n {
		dst.adj = make([][]halfEdge, g.n)
	} else {
		dst.adj = dst.adj[:g.n]
	}
	for v := range g.adj {
		src := g.adj[v]
		if cap(dst.adj[v]) < len(src) {
			dst.adj[v] = make([]halfEdge, len(src))
		} else {
			dst.adj[v] = dst.adj[v][:len(src)]
		}
		copy(dst.adj[v], src)
	}
}

// WeightClone returns a copy of g that owns its edge array (so
// SetWeight on the clone is invisible to g) but shares g's adjacency
// structure. Both graphs must stay structurally frozen afterwards:
// adding nodes or edges to either would write into the shared
// adjacency backing. The planner caches use it to re-price a cached
// work graph's edges without copying the adjacency lists — the
// dominant share of a graph clone.
//
// The clone shares g's seed table too, creating it when g has none, so
// a tree built on one graph of the family seeds the next build from
// the same root on any other (SeededTree).
func (g *Graph) WeightClone() *Graph {
	c := &Graph{
		n:     g.n,
		edges: append([]Edge(nil), g.edges...),
		adj:   g.adj,
	}
	c.seeds.Store(g.seedTable())
	return c
}

// Reset empties g and re-sizes it to n nodes with no edges, reusing
// the adjacency arenas of previous construction rounds. It exists for
// scratch graphs that are rebuilt per evaluation round (Steiner
// closures, pruning subgraphs) so the rebuild is allocation-free once
// the arenas have grown to workload size. g loses its seeds.
func (g *Graph) Reset(n int) {
	if n < 0 {
		n = 0
	}
	g.dropSeeds()
	g.edges = g.edges[:0]
	if cap(g.adj) < n {
		g.adj = make([][]halfEdge, n)
	} else {
		g.adj = g.adj[:n]
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.n = n
}

// NumNodes reports the number of nodes in g.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges reports the number of undirected edges in g.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a fresh node and returns its ID. g loses its seeds.
func (g *Graph) AddNode() NodeID {
	g.dropSeeds()
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

// AddEdge inserts an undirected edge {u, v} with weight w and returns
// its edge ID. Parallel edges and self-loops are permitted (self-loops
// are never useful to the algorithms here but are not an error). g
// loses its seeds.
func (g *Graph) AddEdge(u, v NodeID, w float64) (EdgeID, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, fmt.Errorf("%w: {%d,%d} with n=%d", ErrNodeOutOfRange, u, v, g.n)
	}
	if w < 0 {
		return 0, fmt.Errorf("%w: {%d,%d} w=%v", ErrNegativeWeight, u, v, w)
	}
	g.dropSeeds()
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], halfEdge{to: v, id: id})
	if u != v {
		g.adj[v] = append(g.adj[v], halfEdge{to: u, id: id})
	}
	return id, nil
}

// MustAddEdge is AddEdge for statically-valid construction code; it
// panics on error and is intended for package-internal builders and
// tests where node IDs are known constants.
func (g *Graph) MustAddEdge(u, v NodeID, w float64) EdgeID {
	id, err := g.AddEdge(u, v, w)
	if err != nil {
		panic(err)
	}
	return id
}

// Edge returns the endpoints and weight of edge id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Weight returns the weight of edge id.
func (g *Graph) Weight(id EdgeID) float64 { return g.edges[id].W }

// SetWeight overwrites the weight of edge id. Negative weights are
// rejected because every algorithm in this package assumes
// non-negative metrics.
func (g *Graph) SetWeight(id EdgeID, w float64) error {
	if id < 0 || id >= len(g.edges) {
		return fmt.Errorf("graph: edge %d out of range (m=%d)", id, len(g.edges))
	}
	if w < 0 {
		return fmt.Errorf("%w: edge %d w=%v", ErrNegativeWeight, id, w)
	}
	g.edges[id].W = w
	return nil
}

// Degree reports the number of incident half-edges at v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// Neighbor is one adjacency entry: the node reached and the edge used.
type Neighbor struct {
	Node   NodeID
	EdgeID EdgeID
	Weight float64
}

// Neighbors returns the adjacency of v as (node, edge, weight) triples.
// The returned slice is freshly allocated.
func (g *Graph) Neighbors(v NodeID) []Neighbor {
	hs := g.adj[v]
	out := make([]Neighbor, len(hs))
	for i, h := range hs {
		out[i] = Neighbor{Node: h.to, EdgeID: h.id, Weight: g.edges[h.id].W}
	}
	return out
}

// VisitNeighbors calls fn for every neighbor of v without allocating.
// If fn returns false, iteration stops early.
func (g *Graph) VisitNeighbors(v NodeID, fn func(to NodeID, id EdgeID, w float64) bool) {
	for _, h := range g.adj[v] {
		if !fn(h.to, h.id, g.edges[h.id].W) {
			return
		}
	}
}

// HasEdgeBetween reports whether at least one edge joins u and v.
func (g *Graph) HasEdgeBetween(u, v NodeID) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	// Scan the smaller adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.to == v {
			return true
		}
	}
	return false
}

// EdgeBetween returns the ID of the minimum-weight edge joining u and v
// and true, or (0, false) when none exists.
func (g *Graph) EdgeBetween(u, v NodeID) (EdgeID, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	best, found := 0, false
	for _, h := range g.adj[u] {
		if h.to != v {
			continue
		}
		if !found || g.edges[h.id].W < g.edges[best].W {
			best, found = h.id, true
		}
	}
	return best, found
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for i := range g.edges {
		s += g.edges[i].W
	}
	return s
}
