package core

import (
	"sync"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
)

// PlanArena owns the per-plan scratch memory of the online planners:
// the Dijkstra workspace and Steiner scratch of the per-candidate KMB
// runs, the hoisted terminal slices, the rooted view and path buffer of
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

	rooted rootedView      // the candidate's Steiner tree rooted at s_k
	hops   []multicast.Hop // one path of the winner's pseudo tree
}

// NewPlanArena returns an empty arena. Arenas grow to workload size on
// first use and are reused across requests.
func NewPlanArena() *PlanArena { return &PlanArena{} }

// arenaPool is the scratch of every planner's Plan when the caller hands
// it a nil arena; the planner returns the arena when the plan is done.
var arenaPool = sync.Pool{New: func() any { return NewPlanArena() }}

// refinePayload maps a pruning-graph edge back to what it represents:
// a real work-graph edge, or the virtual edge of an auxiliary server.
type refinePayload struct {
	real    graph.EdgeID
	virtual graph.NodeID // -1 when real
}

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
// and the tree decomposition: the metric closure (whose skeleton
// closureEvaluator.prepare builds once per evaluator), MST workspaces,
// the stamped expansion-union buffers, the pruning graph of KMB steps
// 4-5, the link multiset of treeLoads and the component-orientation
// state of decompose. Appro_Multi's candidate evaluation hands each
// worker goroutine its own instance; the online planners keep one
// inside their PlanArena. The zero value is ready to use.
type evalScratch struct {
	closure    graph.Graph  // metric closure over {virtual source} ∪ D_k
	reduced    graph.Graph  // its virtual edges plus M_D (see prepare)
	reducedOK  bool         // M_D is certified unique: reduced may stand in
	spine      []graph.Edge // M_D's edges over destination indices
	closureMST graph.MST
	tree       *graph.Graph // the closure closureMST's edge IDs index
	mst        graph.MSTWorkspace

	sub   []subsetServer // the candidate subset, resolved
	entry []graph.NodeID // per-destination cheapest entry server

	gen     uint32   // stamp generation for the union/visited sets
	edgeGen []uint32 // work-graph edge -> generation last added to union
	nodeGen []uint32 // work-graph node -> generation last marked
	union   []graph.EdgeID
	virt    []graph.NodeID

	tg        graph.Graph // pruning graph over n+1 nodes (KMB steps 4-5)
	payloads  []refinePayload
	dsu       graph.DisjointSet // refine's cycle check over the union
	forest    graph.MST
	isTerm    []bool
	deg       []int32
	incident  [][]int32
	alive     []bool
	queue     []graph.NodeID
	servers   []graph.NodeID
	realEdges []graph.EdgeID

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
	if cap(s.nodeGen) < n {
		s.nodeGen = make([]uint32, n)
		s.adjGen = make([]uint32, n)
		s.visGen = make([]uint32, n)
	} else {
		s.nodeGen = s.nodeGen[:n]
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
		for i := range s.nodeGen {
			s.nodeGen[i] = 0
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
