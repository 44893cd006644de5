package graph

import (
	"fmt"
	"sort"
)

// SteinerTree is an approximate minimum Steiner tree over a host
// graph: a set of host edge IDs forming a tree that spans Terminals.
type SteinerTree struct {
	Terminals []NodeID
	EdgeIDs   []EdgeID
	Weight    float64
}

// Nodes returns the sorted-unique node set touched by the tree.
// A single-terminal tree returns just that terminal.
func (t *SteinerTree) Nodes(g *Graph) []NodeID {
	seen := make(map[NodeID]struct{}, 2*len(t.EdgeIDs)+len(t.Terminals))
	var out []NodeID
	add := func(v NodeID) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	for _, term := range t.Terminals {
		add(term)
	}
	for _, id := range t.EdgeIDs {
		e := g.Edge(id)
		add(e.U)
		add(e.V)
	}
	return out
}

// SteinerScratch owns every transient structure of a KMB run — the
// Dijkstra workspace and per-terminal trees of step (1), the metric
// closure and MST arenas of steps (2) and (4), and the slice-backed
// union/pruning scratch of steps (3)–(5) — so repeated Steiner
// evaluations (one per candidate server on the planner hot path) reuse
// one allocation set instead of rebuilding maps per call.
//
// The zero value is ready to use. A scratch is not safe for concurrent
// use: give each worker goroutine its own (see core's plan arenas).
// Results are bit-identical to scratch-free runs — the scratch only
// changes where intermediate state lives, never what is computed.
type SteinerScratch struct {
	ws  DijkstraWorkspace
	sps []*ShortestPaths // step-1 trees when the caller supplies none

	terms    []NodeID // deduped terminal scratch (copied into the result)
	dedupSPs []*ShortestPaths
	nodeGen  []uint32 // node stamp: terminal dedup, then step-4 compact IDs
	nodeOf   []int32  // host node -> compact subgraph ID, valid when stamped
	gen      uint32

	closure    Graph // step-2 metric closure over the terminals
	mst        MSTWorkspace
	closureMST MST

	edgeGen []uint32 // step-3 union dedup stamp, indexed by host edge
	union   []EdgeID

	revNode []NodeID // step-4 compact subgraph over the union
	sub     Graph
	hostOf  []EdgeID
	subMST  MST

	isTerm   []bool    // step-5 pruning, indexed by compact node ID
	deg      []int32   // likewise
	incident [][]int32 // compact node -> incident sub-edge IDs
	alive    []bool    // indexed by sub-edge ID
	queue    []int32   // compact node IDs pending prune
}

// ensure sizes the stamp arrays for a host graph with n nodes and m
// edges. Fresh arrays are zero-stamped, which never matches a live
// generation (gen starts at 1).
func (s *SteinerScratch) ensure(n, m int) {
	if cap(s.nodeGen) < n {
		s.nodeGen = make([]uint32, n)
		s.nodeOf = make([]int32, n)
	} else {
		s.nodeGen = s.nodeGen[:n]
		s.nodeOf = s.nodeOf[:n]
	}
	if cap(s.edgeGen) < m {
		s.edgeGen = make([]uint32, m)
	} else {
		s.edgeGen = s.edgeGen[:m]
	}
}

// nextGen advances the scratch generation, invalidating every node and
// edge stamp in O(1). On the (astronomically rare) uint32 wrap the
// stamp arrays are cleared so stale stamps cannot alias a live
// generation.
func (s *SteinerScratch) nextGen() uint32 {
	s.gen++
	if s.gen == 0 {
		for i := range s.nodeGen {
			s.nodeGen[i] = 0
		}
		for i := range s.edgeGen {
			s.edgeGen[i] = 0
		}
		s.gen = 1
	}
	return s.gen
}

// SteinerKMB computes a Steiner tree spanning terminals using the
// Kou–Markowsky–Berman algorithm (Acta Informatica 15, 1981), whose
// output costs at most 2·(1 − 1/ℓ) times the optimum for ℓ terminals.
// This is the approximation the paper invokes for both Appro_Multi and
// Online_CP.
//
// Steps: (1) metric closure over the terminals via one Dijkstra per
// terminal, (2) MST of the closure, (3) expand closure edges to host
// shortest paths, (4) MST of the expansion, (5) prune non-terminal
// leaves. Returns ErrDisconnected when some terminal pair is not
// connected in g.
func SteinerKMB(g *Graph, terminals []NodeID) (*SteinerTree, error) {
	return SteinerKMBScratch(g, terminals, new(SteinerScratch))
}

// SteinerKMBScratch is SteinerKMB with caller-owned scratch, for hot
// paths that run many KMB instances back to back.
func SteinerKMBScratch(g *Graph, terminals []NodeID, scratch *SteinerScratch) (*SteinerTree, error) {
	return steinerKMB(g, terminals, nil, scratch)
}

// SteinerKMBWithSPs is SteinerKMB with step (1) supplied by the caller:
// sps[i] must be the shortest-path tree of g rooted at terminals[i]
// (sps is parallel to terminals; duplicate terminals are deduplicated
// in lockstep). Callers that evaluate many terminal sets sharing most
// roots — the online planner tries every candidate server against the
// same {source} ∪ destinations — compute each root's Dijkstra once and
// reuse it across all calls, cutting the per-call Dijkstra count to
// zero. The result is identical to SteinerKMB on the same terminals.
//
// At most one distinct terminal may come with a nil tree. g is
// undirected, so that terminal's closure row is read from the other
// terminals' trees (d(v,t) = sps[t].Dist[v]) and its closure-MST edges
// are expanded by walking sps[t] back from v: a caller's one varying
// terminal needs no Dijkstra. Such a weight may differ from v's own
// Dijkstra in the last ulp, and of two equally short paths the other may
// be taken; the output equals the all-trees call whenever shortest paths
// and closure-edge weights are tie-free.
func SteinerKMBWithSPs(
	g *Graph, terminals []NodeID, sps []*ShortestPaths, scratch *SteinerScratch,
) (*SteinerTree, error) {
	if len(sps) != len(terminals) {
		return nil, fmt.Errorf("graph: %d terminals with %d shortest-path trees",
			len(terminals), len(sps))
	}
	if scratch == nil {
		scratch = new(SteinerScratch)
	}
	return steinerKMB(g, terminals, sps, scratch)
}

// steinerKMB is the shared KMB pipeline. sps, when non-nil, supplies
// the per-terminal shortest-path trees (parallel to terminals);
// otherwise they are computed into the scratch.
func steinerKMB(g *Graph, terminals []NodeID, sps []*ShortestPaths, s *SteinerScratch) (*SteinerTree, error) {
	n, m := g.NumNodes(), g.NumEdges()
	for _, t := range terminals {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("%w: terminal %d with n=%d", ErrNodeOutOfRange, t, n)
		}
	}
	s.ensure(n, m)
	gen := s.nextGen()

	// Dedup terminals preserving first-occurrence order, carrying the
	// supplied shortest-path trees along in lockstep.
	s.terms = s.terms[:0]
	s.dedupSPs = s.dedupSPs[:0]
	rowless := false // a terminal without a tree was seen; a second is refused
	for i, v := range terminals {
		if s.nodeGen[v] == gen {
			continue
		}
		s.nodeGen[v] = gen
		s.terms = append(s.terms, v)
		if sps != nil {
			sp := sps[i]
			if sp == nil && rowless || sp != nil && sp.Source != v {
				return nil, fmt.Errorf("graph: shortest-path tree %d is not rooted at terminal %d", i, v)
			}
			rowless = rowless || sp == nil
			s.dedupSPs = append(s.dedupSPs, sp)
		}
	}
	terms := s.terms
	out := &SteinerTree{Terminals: append([]NodeID(nil), terms...)}
	if len(terms) <= 1 {
		return out, nil
	}

	// (1) Shortest paths from every terminal (unless supplied).
	var termSPs []*ShortestPaths
	if sps != nil {
		termSPs = s.dedupSPs
	} else {
		for len(s.sps) < len(terms) {
			s.sps = append(s.sps, new(ShortestPaths))
		}
		for i, t := range terms {
			if err := s.ws.DijkstraInto(g, t, s.sps[i]); err != nil {
				return nil, err
			}
		}
		termSPs = s.sps[:len(terms)]
	}

	// (2) MST of the metric closure (complete graph over terminals).
	s.closure.Reset(len(terms))
	for i := 0; i < len(terms); i++ {
		for j := i + 1; j < len(terms); j++ {
			from, to := i, j
			if termSPs[from] == nil {
				from, to = j, i
			}
			d := termSPs[from].Dist[terms[to]]
			if d >= Infinity {
				return nil, fmt.Errorf("graph: terminals %d and %d: %w", terms[i], terms[j], ErrDisconnected)
			}
			s.closure.MustAddEdge(i, j, d)
		}
	}
	if err := s.mst.Prim(&s.closure, &s.closureMST); err != nil {
		return nil, err
	}

	// (3) Expand each closure MST edge into its host shortest path,
	// collecting the union of host edges (stamp-deduplicated).
	s.union = s.union[:0]
	for _, cid := range s.closureMST.EdgeIDs {
		ce := s.closure.Edge(cid)
		from, to := ce.U, ce.V
		if termSPs[from] == nil {
			from, to = to, from
		}
		ok := termSPs[from].VisitPathEdges(terms[to], func(he EdgeID) bool {
			if s.edgeGen[he] != gen {
				s.edgeGen[he] = gen
				s.union = append(s.union, he)
			}
			return true
		})
		if !ok {
			return nil, ErrDisconnected
		}
	}

	// (4) MST of the expansion subgraph. Build a compact subgraph over
	// the touched nodes to keep Prim linear in the subgraph size.
	// Iterate the union in sorted order so equal-weight MST
	// tie-breaking is deterministic. A fresh generation invalidates the
	// terminal-dedup node stamps so the array can be reused for the
	// compact-ID assignment.
	sort.Ints(s.union)
	gen = s.nextGen()
	s.revNode = s.revNode[:0]
	s.hostOf = s.hostOf[:0]
	localID := func(v NodeID) int32 {
		if s.nodeGen[v] == gen {
			return s.nodeOf[v]
		}
		id := int32(len(s.revNode))
		s.nodeGen[v] = gen
		s.nodeOf[v] = id
		s.revNode = append(s.revNode, v)
		return id
	}
	// First pass assigns compact IDs in edge order (matching the lazy
	// AddNode order of the map-based construction), then the subgraph
	// is built in one shot over the final node count.
	for _, he := range s.union {
		e := g.Edge(he)
		localID(e.U)
		localID(e.V)
	}
	s.sub.Reset(len(s.revNode))
	for _, he := range s.union {
		e := g.Edge(he)
		s.sub.MustAddEdge(int(s.nodeOf[e.U]), int(s.nodeOf[e.V]), e.W)
		s.hostOf = append(s.hostOf, he)
	}
	if err := s.mst.Prim(&s.sub, &s.subMST); err != nil {
		return nil, err
	}

	// (5) Prune non-terminal leaves iteratively, on the compact IDs.
	nl := len(s.revNode)
	if cap(s.isTerm) < nl {
		s.isTerm = make([]bool, nl)
		s.deg = make([]int32, nl)
	}
	isTerm := s.isTerm[:nl]
	deg := s.deg[:nl]
	for i := 0; i < nl; i++ {
		isTerm[i] = false
		deg[i] = 0
	}
	for _, t := range terms {
		isTerm[s.nodeOf[t]] = true
	}
	if cap(s.incident) < nl {
		s.incident = append(s.incident[:cap(s.incident)], make([][]int32, nl-cap(s.incident))...)
	}
	incident := s.incident[:nl]
	for i := 0; i < nl; i++ {
		incident[i] = incident[i][:0]
	}
	if cap(s.alive) < len(s.hostOf) {
		s.alive = make([]bool, len(s.hostOf))
	}
	alive := s.alive[:len(s.hostOf)]
	for i := range alive {
		alive[i] = false
	}
	for _, sid := range s.subMST.EdgeIDs {
		alive[sid] = true
		e := s.sub.Edge(sid)
		deg[e.U]++
		deg[e.V]++
		incident[e.U] = append(incident[e.U], int32(sid))
		incident[e.V] = append(incident[e.V], int32(sid))
	}
	s.queue = s.queue[:0]
	for v := 0; v < nl; v++ {
		if deg[v] == 1 && !isTerm[v] {
			s.queue = append(s.queue, int32(v))
		}
	}
	for len(s.queue) > 0 {
		v := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, sid := range incident[v] {
			if !alive[sid] {
				continue
			}
			alive[sid] = false
			e := s.sub.Edge(int(sid))
			other := int32(e.U)
			if other == v {
				other = int32(e.V)
			}
			deg[v]--
			deg[other]--
			if deg[other] == 1 && !isTerm[other] {
				s.queue = append(s.queue, other)
			}
		}
	}
	// Emit edges in sorted host-ID order so downstream float
	// accumulations (tree weights, costs) are bit-deterministic across
	// runs. hostOf is already host-sorted (built from the sorted union),
	// so ascending sub-edge order is ascending host order.
	for sid, ok := range alive {
		if ok {
			out.EdgeIDs = append(out.EdgeIDs, s.hostOf[sid])
		}
	}
	for _, he := range out.EdgeIDs {
		out.Weight += g.Weight(he)
	}
	return out, nil
}

// dedupNodes returns the input nodes with duplicates removed,
// preserving first-occurrence order.
func dedupNodes(in []NodeID) []NodeID {
	seen := make(map[NodeID]struct{}, len(in))
	out := make([]NodeID, 0, len(in))
	for _, v := range in {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
