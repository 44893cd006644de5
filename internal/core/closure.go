package core

import (
	"errors"
	"fmt"
	"sort"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
)

// closureEvaluator scores server subsets for Appro_Multi without
// materialising the auxiliary graph G_k^i: distances between real
// nodes are subset-independent, so one Dijkstra per destination and
// per server (done once per request) lets every subset be evaluated
// through the KMB metric closure in O(|D_k|^2 + |D_k|*|subset|).
//
// Thread safety: a closureEvaluator is read-only after
// newClosureEvaluator returns. prepare, steiner and steinerRooted keep
// all mutable state in the caller's evalScratch and only read the
// precomputed ShortestPaths, so one evaluator may be shared by any
// number of goroutines as long as each brings its own (prepared)
// scratch — this is what Appro_Multi's parallel candidate evaluation
// relies on, and the -race stress tests in parallel_test.go pin it
// down.
type closureEvaluator struct {
	w     *workGraph
	req   *multicast.Request
	spSrv map[graph.NodeID]*graph.ShortestPaths
	spDst []*graph.ShortestPaths // parallel to req.Destinations
}

// newClosureEvaluator precomputes the per-destination shortest-path
// trees. spc, when non-nil, supplies/memoizes them (the online
// planners share one cache per residual epoch); ws, when non-nil,
// provides the heap arena for cache misses.
func newClosureEvaluator(
	w *workGraph, req *multicast.Request, spSrv map[graph.NodeID]*graph.ShortestPaths,
	spc *spCache, ws *graph.DijkstraWorkspace,
) (*closureEvaluator, error) {
	ev := &closureEvaluator{
		w:     w,
		req:   req,
		spSrv: spSrv,
		spDst: make([]*graph.ShortestPaths, len(req.Destinations)),
	}
	for i, d := range req.Destinations {
		var sp *graph.ShortestPaths
		var err error
		switch {
		case spc != nil:
			sp, err = spc.fromWith(d, ws)
		case ws != nil:
			sp = new(graph.ShortestPaths)
			err = ws.DijkstraInto(w.g, d, sp)
		default:
			sp, err = graph.Dijkstra(w.g, d)
		}
		if err != nil {
			return nil, err
		}
		ev.spDst[i] = sp
	}
	return ev, nil
}

// errDominated reports a subset whose destinations all enter the
// closure through a proper sub-subset U: the closure — and so the KMB
// tree, its decomposition and its cost — is that of U bit for bit, and
// U, being smaller, is enumerated earlier and wins every tie.
var errDominated = errors.New("core: subset dominated by its entry servers")

// prepare builds the subset-independent skeleton of the metric closure
// in s and sizes s for the work graph. It must run once per (evaluator,
// scratch) pair before steiner or steinerRooted; a scratch that
// outlives its evaluator (PlanArena.eval) is re-prepared by the next
// one.
//
// The skeleton is two graphs over the same nodes — closure node 0 is
// the virtual source, node j+1 destination j — whose edge j is the
// virtual-source edge of destination j, weighted per candidate. The
// full closure follows with every destination–destination distance;
// the reduced closure only with the edges of M_D, the MST of those
// distances. A destination pair outside M_D is the strict maximum of a
// cycle through M_D when M_D is unique, so it is in no MST of any
// candidate's closure (DESIGN.md §8); the reduced closure is usable
// only then.
func (ev *closureEvaluator) prepare(s *evalScratch) {
	s.ensure(ev.w.g.NumNodes(), ev.w.g.NumEdges())
	dests := ev.req.Destinations
	m := len(dests)
	dd := &s.reduced // the destination–destination graph, until rebuilt below
	dd.Reset(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if d := ev.spDst[i].Dist[dests[j]]; d < graph.Infinity {
				dd.MustAddEdge(i, j, d)
			}
		}
	}
	s.reducedOK = s.mst.Prim(dd, &s.closureMST) == nil && s.closureMST.Unique
	s.spine = s.spine[:0]
	for _, id := range s.closureMST.EdgeIDs {
		s.spine = append(s.spine, dd.Edge(id))
	}
	s.closure.Reset(m + 1)
	for j := range dests {
		s.closure.MustAddEdge(0, j+1, 0)
	}
	for id := 0; id < dd.NumEdges(); id++ {
		e := dd.Edge(id)
		s.closure.MustAddEdge(e.U+1, e.V+1, e.W)
	}
	s.reduced.Reset(m + 1)
	for j := range dests {
		s.reduced.MustAddEdge(0, j+1, 0)
	}
	for _, e := range s.spine {
		s.reduced.MustAddEdge(e.U+1, e.V+1, e.W)
	}
}

// setVirtual weights the virtual-source edge of destination j in the
// reduced closure; closureTree copies the weights to the full closure
// when it needs that one.
func (s *evalScratch) setVirtual(j int, w float64) {
	if err := s.reduced.SetWeight(j, w); err != nil {
		panic(err) // a negative distance, as MustAddEdge would report it
	}
}

// closureTree computes the closure MST for the virtual-edge weights
// set by setVirtual into s.closureMST and points s.tree at the closure
// whose edge IDs it holds. Prim runs on the reduced closure; its tree
// is kept only when both it and M_D are certified unique, which makes
// it the full closure's only MST too. Otherwise Prim runs on the full
// closure, so ties break exactly as they always have.
func (s *evalScratch) closureTree() error {
	if s.reducedOK {
		if err := s.mst.Prim(&s.reduced, &s.closureMST); err == nil && s.closureMST.Unique {
			s.tree = &s.reduced
			return nil
		}
	}
	for j := 0; j < s.closure.NumNodes()-1; j++ {
		if err := s.closure.SetWeight(j, s.reduced.Weight(j)); err != nil {
			return err
		}
	}
	s.tree = &s.closure
	return s.mst.Prim(&s.closure, &s.closureMST)
}

// resolve looks the subset's shortest-path trees (and, when omega is
// non-nil, virtual-edge weights) up once, so the per-destination loops
// index a slice instead of two maps.
func (ev *closureEvaluator) resolve(
	subset []graph.NodeID, omega map[graph.NodeID]float64, s *evalScratch,
) []subsetServer {
	s.sub = s.sub[:0]
	for _, v := range subset {
		s.sub = append(s.sub, subsetServer{sp: ev.spSrv[v], omega: omega[v]})
	}
	return s.sub
}

// closureMST computes the MST of the metric closure over the terminals
// {virtual source} ∪ D_k for the given subset (see closureTree) and,
// per destination, the cheapest entry server realising the
// virtual-source distance into s.entry (the first such server in subset
// order). It fails with ErrUnreachable when some destination cannot be
// reached through any subset server, and with errDominated — before
// Prim — when the entry servers are a proper subset of subset.
func (ev *closureEvaluator) closureMST(
	subset []graph.NodeID, omega map[graph.NodeID]float64, s *evalScratch,
) error {
	sub := ev.resolve(subset, omega, s)
	s.entry = s.entry[:0]
	entered := 0
	for j, d := range ev.req.Destinations {
		best := graph.Infinity
		bestI := -1
		for i := range sub {
			if dist := sub[i].sp.Dist[d]; dist < graph.Infinity {
				if c := sub[i].omega + dist; c < best {
					best, bestI = c, i
				}
			}
		}
		if bestI == -1 {
			return ErrUnreachable
		}
		if !sub[bestI].entered {
			sub[bestI].entered = true
			entered++
		}
		s.entry = append(s.entry, subset[bestI])
		s.setVirtual(j, best)
	}
	if entered < len(subset) && !disableSubsetPruning {
		return errDominated
	}
	if err := s.closureTree(); err != nil {
		return ErrUnreachable
	}
	return nil
}

// expand converts the closure MST in s into the union of work-graph
// edges and used virtual servers (KMB step 3). The returned slices are
// scratch-backed, deduplicated and unsorted (refine sorts them).
func (ev *closureEvaluator) expand(s *evalScratch) (union []graph.EdgeID, virt []graph.NodeID, err error) {
	gen := s.nextGen()
	s.union = s.union[:0]
	s.virt = s.virt[:0]
	addEdge := func(e graph.EdgeID) bool {
		if s.edgeGen[e] != gen {
			s.edgeGen[e] = gen
			s.union = append(s.union, e)
		}
		return true
	}
	dests := ev.req.Destinations
	for _, cid := range s.closureMST.EdgeIDs {
		ce := s.tree.Edge(cid)
		a, b := ce.U, ce.V
		if a > b {
			a, b = b, a
		}
		if a == 0 {
			// Virtual source to destination b-1 through its entry server.
			v := s.entry[b-1]
			if s.nodeGen[v] != gen {
				s.nodeGen[v] = gen
				s.virt = append(s.virt, v)
			}
			if !ev.spSrv[v].VisitPathEdges(dests[b-1], addEdge) {
				return nil, nil, fmt.Errorf("%w: server %d to destination %d",
					ErrUnreachable, v, dests[b-1])
			}
			continue
		}
		if !ev.spDst[a-1].VisitPathEdges(dests[b-1], addEdge) {
			return nil, nil, fmt.Errorf("%w: destinations %d and %d",
				ErrUnreachable, dests[a-1], dests[b-1])
		}
	}
	return s.union, s.virt, nil
}

// refine runs KMB steps 4-5 on the expansion: MST of the union
// subgraph (with the virtual source attached through its used virtual
// edges), then iterative pruning of non-terminal leaves. It returns
// the surviving virtual servers, the surviving real work-graph edges
// (both scratch-backed; PseudoTree construction copies what it keeps),
// and the total auxiliary cost. union and virt are sorted in place.
// When virt is empty, extraTerminals must anchor the tree instead of
// the virtual source (the rooted variant used for single-server
// candidates).
func (ev *closureEvaluator) refine(
	union []graph.EdgeID,
	virt []graph.NodeID,
	omega map[graph.NodeID]float64,
	s *evalScratch,
	extraTerminals ...graph.NodeID,
) (servers []graph.NodeID, realEdges []graph.EdgeID, cost float64, err error) {
	w := ev.w
	n := w.g.NumNodes()
	virtualNode := n // the auxiliary virtual source s'_k

	// Deterministic iteration order.
	sort.Ints(union)
	sort.Ints(virt)

	// Pruning graph over n+1 nodes holding only the union edges;
	// payload maps pruning edge -> (real work edge | virtual server).
	// One union-find pass over the same edges finds whether any closes
	// a cycle.
	tg := &s.tg
	tg.Reset(n + 1)
	s.payloads = s.payloads[:0]
	s.dsu.Reset(n + 1)
	acyclic := true
	for _, e := range union {
		he := w.g.Edge(e)
		tg.MustAddEdge(he.U, he.V, he.W)
		s.payloads = append(s.payloads, refinePayload{real: e, virtual: -1})
		acyclic = acyclic && s.dsu.Union(he.U, he.V)
	}
	for _, v := range virt {
		tg.MustAddEdge(virtualNode, v, omega[v])
		s.payloads = append(s.payloads, refinePayload{virtual: v})
		acyclic = acyclic && s.dsu.Union(virtualNode, v)
	}

	// Spanning forest of the union: the terminal component is a tree,
	// isolated nodes contribute nothing, so ErrDisconnected is
	// expected and benign here. An acyclic union is its own spanning
	// forest — every edge, in whatever order Kruskal would sort them —
	// so only a cyclic one pays for the sort. (The fast path leaves
	// s.forest.Weight stale; nothing reads it.)
	if acyclic {
		s.forest.EdgeIDs = s.forest.EdgeIDs[:0]
		for id := range s.payloads {
			s.forest.EdgeIDs = append(s.forest.EdgeIDs, id)
		}
	} else if ferr := s.mst.Kruskal(tg, &s.forest); ferr != nil && ferr != graph.ErrDisconnected {
		return nil, nil, 0, ferr
	}

	// Prune non-terminal leaves (terminals: virtual source when
	// present, the destinations, and any extra anchors). The dense
	// per-node arrays cover all n+1 pruning-graph nodes; leaf removal
	// is confluent, so visiting candidates in node order reproduces the
	// same surviving edge set as any other order.
	nt := n + 1
	if cap(s.isTerm) < nt {
		s.isTerm = make([]bool, nt)
		s.deg = make([]int32, nt)
	}
	isTerm := s.isTerm[:nt]
	deg := s.deg[:nt]
	for i := 0; i < nt; i++ {
		isTerm[i] = false
		deg[i] = 0
	}
	if len(virt) > 0 {
		isTerm[virtualNode] = true
	}
	for _, d := range ev.req.Destinations {
		isTerm[d] = true
	}
	for _, v := range extraTerminals {
		isTerm[v] = true
	}
	if cap(s.incident) < nt {
		grown := make([][]int32, nt)
		copy(grown, s.incident[:cap(s.incident)])
		s.incident = grown
	} else {
		s.incident = s.incident[:nt]
	}
	incident := s.incident
	for i := 0; i < nt; i++ {
		incident[i] = incident[i][:0]
	}
	if cap(s.alive) < len(s.payloads) {
		s.alive = make([]bool, len(s.payloads))
	}
	alive := s.alive[:len(s.payloads)]
	for i := range alive {
		alive[i] = false
	}
	for _, id := range s.forest.EdgeIDs {
		alive[id] = true
		e := tg.Edge(id)
		deg[e.U]++
		deg[e.V]++
		incident[e.U] = append(incident[e.U], int32(id))
		incident[e.V] = append(incident[e.V], int32(id))
	}
	s.queue = s.queue[:0]
	for v := 0; v < nt; v++ {
		if deg[v] == 1 && !isTerm[v] {
			s.queue = append(s.queue, v)
		}
	}
	for len(s.queue) > 0 {
		v := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, id := range incident[v] {
			if !alive[id] {
				continue
			}
			alive[id] = false
			e := tg.Edge(int(id))
			other := e.U
			if other == v {
				other = e.V
			}
			deg[v]--
			deg[other]--
			if deg[other] == 1 && !isTerm[other] {
				s.queue = append(s.queue, other)
			}
		}
	}

	// Surviving edges in ascending pruning-edge order — the same sorted
	// order the cost accumulation has always used, keeping float sums
	// bit-deterministic.
	s.servers = s.servers[:0]
	s.realEdges = s.realEdges[:0]
	for id, ok := range alive {
		if !ok {
			continue
		}
		cost += tg.Weight(id)
		p := s.payloads[id]
		if p.virtual >= 0 {
			s.servers = append(s.servers, p.virtual)
		} else {
			s.realEdges = append(s.realEdges, p.real)
		}
	}
	if len(virt) > 0 && len(s.servers) == 0 {
		return nil, nil, 0, fmt.Errorf("core: internal: pruned tree lost every server")
	}
	return s.servers, s.realEdges, cost, nil
}

// steinerRooted builds a KMB tree over {root} ∪ D_k from the
// precomputed per-server and per-destination Dijkstras. It realises
// the single-server "rooted" candidate (route to the server first,
// then distribute), which is always in the solution space of the
// problem and complements the virtual-source construction whose
// closure offsets all source-side distances by ω. s must have been
// prepared by ev.
func (ev *closureEvaluator) steinerRooted(
	root graph.NodeID, s *evalScratch,
) (realEdges []graph.EdgeID, cost float64, err error) {
	if err := ev.rootedMST(root, s); err != nil {
		return nil, 0, err
	}
	union, _, err := ev.expand(s)
	if err != nil {
		return nil, 0, err
	}
	_, realEdges, cost, err = ev.refine(union, nil, nil, s, root)
	return realEdges, cost, err
}

// rootedMST is closureMST for the rooted candidate of root: the
// closure over {root} ∪ D_k, root standing in for the virtual source,
// with every destination entering at root.
func (ev *closureEvaluator) rootedMST(root graph.NodeID, s *evalScratch) error {
	spRoot, ok := ev.spSrv[root]
	if !ok {
		return fmt.Errorf("%w: server %d has no precomputed paths", ErrUnreachable, root)
	}
	s.entry = s.entry[:0]
	for j, d := range ev.req.Destinations {
		dist := spRoot.Dist[d]
		if dist >= graph.Infinity {
			return fmt.Errorf("%w: destination %d from server %d", ErrUnreachable, d, root)
		}
		s.entry = append(s.entry, root) // expand: every destination enters at root
		s.setVirtual(j, dist)
	}
	return s.closureTree()
}

// steiner runs the full KMB pipeline for one server subset and
// returns the used servers, the surviving real work-graph edges
// (scratch-backed), and the auxiliary Steiner tree cost c(T_k^i); a
// dominated subset (see errDominated) is reported before any of it
// runs. s must have been prepared by ev.
func (ev *closureEvaluator) steiner(
	subset []graph.NodeID, omega map[graph.NodeID]float64, s *evalScratch,
) (servers []graph.NodeID, realEdges []graph.EdgeID, auxCost float64, err error) {
	if err := ev.closureMST(subset, omega, s); err != nil {
		return nil, nil, 0, err
	}
	union, virt, err := ev.expand(s)
	if err != nil {
		return nil, nil, 0, err
	}
	return ev.refine(union, virt, omega, s)
}
