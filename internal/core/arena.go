package core

import (
	"fmt"
	"sync"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
)

// PlanArena owns the per-plan scratch memory of the online planners:
// the Dijkstra workspace and Steiner scratch of the per-candidate KMB
// sweep with the trees it fills, the hoisted terminal slices, the
// plan's price memo, the rooted view, hop buffer and fan-out stamps of
// pseudo-tree realization, and the closure evaluator's per-candidate
// buffers. One arena serves one Plan call at a time; the admission
// engine keeps one per planner worker so concurrent planners never
// share scratch, and Plan calls handed a nil arena draw from arenaPool.
// The zero value is ready to use.
//
// Arenas only relocate transient state — every planner result is
// identical with or without one.
type PlanArena struct {
	ws      graph.DijkstraWorkspace
	steiner graph.SteinerScratch
	eval    evalScratch

	terms  []graph.NodeID
	sps    []*graph.ShortestPaths
	dstSPs []*graph.ShortestPaths
	trees  [2]graph.SteinerTree // a candidate's tree and the incumbent's
	prices priceMemo

	rooted   rootedView           // the candidate's Steiner tree rooted at s_k
	hops     []multicast.Hop      // the winner's pseudo-tree hops, before handover
	linkUses []int32              // edge -> hops over it; zero between realizations
	loads    []multicast.EdgeLoad // the hops' link loads, before handover

	fanGen     uint64   // realization count; never wraps
	fanReached []uint64 // node -> realization whose fan-outs last reached it
}

// fanOutStamps returns realizeSingleServer's reached-node stamps, sized
// for n nodes, and a fresh generation no node carries yet.
func (a *PlanArena) fanOutStamps(n int) ([]uint64, uint64) {
	if len(a.fanReached) < n {
		a.fanReached = make([]uint64, n)
	}
	a.fanGen++
	return a.fanReached, a.fanGen
}

// linkLoads returns the link loads of hops, a realization over the tree
// of edges (ascending): each hop's edge counted, then read back in
// edges' order, skipping an edge no hop uses. Every hop edge must be in
// edges; the counts are zero again on return.
func (a *PlanArena) linkLoads(hops []multicast.Hop, edges []graph.EdgeID) []multicast.EdgeLoad {
	loads := a.loads[:0]
	if len(edges) > 0 {
		if n := edges[len(edges)-1] + 1; len(a.linkUses) < n {
			a.linkUses = append(a.linkUses, make([]int32, n-len(a.linkUses))...)
		}
	}
	uses := a.linkUses
	for _, h := range hops {
		uses[h.Edge]++
	}
	counted := 0
	for _, e := range edges {
		if n := uses[e]; n > 0 {
			loads = append(loads, multicast.EdgeLoad{Edge: e, Uses: int(n)})
			counted += int(n)
			uses[e] = 0
		}
	}
	if counted != len(hops) {
		panic(fmt.Sprintf("core: %d of %d hops ride the realized tree's edges", counted, len(hops)))
	}
	a.loads = loads
	return loads
}

// NewPlanArena returns an empty arena. Arenas grow to workload size on
// first use and are reused across requests.
func NewPlanArena() *PlanArena { return &PlanArena{} }

// arenaPool is the scratch of every planner's Plan when the caller hands
// it a nil arena; the planner returns the arena when the plan is done.
var arenaPool = sync.Pool{New: func() any { return NewPlanArena() }}

// subsetServer is one server of the candidate subset under evaluation:
// its map lookups resolved once per candidate, plus whether any
// destination enters the closure through it.
type subsetServer struct {
	sp      *graph.ShortestPaths
	omega   float64
	entered bool
}

// edgeLoad is one link of a decomposed tree's edge multiset: a
// work-graph edge and the number of directed traversals it carries (2
// where the unprocessed and the processed stream cross the same link).
type edgeLoad struct {
	edge graph.EdgeID
	load int
}

// evalScratch is the per-candidate scratch of the closure evaluator
// and the tree decomposition: the Steiner sweep over D_k with the row
// and tree of the candidate in hand, the link multiset of treeLoads and
// the component-orientation state of decompose. Appro_Multi hands each
// worker goroutine its own; the online planners keep one in their
// PlanArena. The zero value is ready to use.
type evalScratch struct {
	kmb  graph.SteinerScratch // the sweep over D_k (prepare)
	tree graph.SteinerTree

	sub   []subsetServer         // the candidate subset, resolved
	via   []*graph.ShortestPaths // per destination, its entry server's tree
	omega []float64              // per destination, its entry server's ω

	gen     uint32   // stamp generation for the link and visited sets
	edgeGen []uint32 // work-graph edge -> generation last crossed

	crossings []graph.EdgeID // treeLoads: one entry per stream crossing a link
	loads     []edgeLoad     // treeLoads: the (edge, load) sequence

	adj    [][]graph.Neighbor // decompose: component adjacency
	adjGen []uint32           // decompose: node -> generation adj was truncated
	visGen []uint32           // decompose: node -> generation visited
	stack  []graph.NodeID
}

// ensure sizes the stamp arrays for a work graph with n nodes and m
// edges; fresh arrays are zero-stamped and never match a live
// generation.
func (s *evalScratch) ensure(n, m int) {
	if cap(s.adjGen) < n {
		s.adjGen = make([]uint32, n)
		s.visGen = make([]uint32, n)
	} else {
		s.adjGen = s.adjGen[:n]
		s.visGen = s.visGen[:n]
	}
	if cap(s.adj) < n {
		grown := make([][]graph.Neighbor, n)
		copy(grown, s.adj[:cap(s.adj)])
		s.adj = grown
	} else {
		s.adj = s.adj[:n]
	}
	if cap(s.edgeGen) < m {
		s.edgeGen = make([]uint32, m)
	} else {
		s.edgeGen = s.edgeGen[:m]
	}
}

// nextGen advances the stamp generation, invalidating every stamped
// set in O(1); on uint32 wrap the stamp arrays are cleared so stale
// stamps cannot alias a live generation.
func (s *evalScratch) nextGen() uint32 {
	s.gen++
	if s.gen == 0 {
		for i := range s.edgeGen {
			s.edgeGen[i] = 0
		}
		for i := range s.adjGen {
			s.adjGen[i] = 0
		}
		for i := range s.visGen {
			s.visGen[i] = 0
		}
		s.gen = 1
	}
	return s.gen
}
