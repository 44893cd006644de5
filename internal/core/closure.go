package core

import (
	"errors"
	"fmt"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
)

// closureEvaluator scores server subsets for Appro_Multi without
// materialising the auxiliary graph G_k^i: distances between real
// nodes are subset-independent, so one Dijkstra per destination and
// per server (done once per request) lets every subset be evaluated
// as a virtual terminal of one Steiner sweep over D_k
// (graph.SteinerScratch.SweepRow). The evaluator picks each
// destination's entry server; the sweep runs KMB.
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

// prepare starts s's Steiner sweep over D_k, whose virtual terminal is
// each candidate's server subset. It must run once per (evaluator,
// scratch) pair before steiner or steinerRooted; a scratch that
// outlives its evaluator (PlanArena.eval) is re-prepared by the next
// one.
func (ev *closureEvaluator) prepare(s *evalScratch) error {
	return s.kmb.BeginSweep(ev.w.g, ev.req.Destinations, ev.spDst, 0)
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

// steiner runs KMB over {virtual source} ∪ D_k for one server subset
// and returns the used servers, the surviving real work-graph edges
// (both scratch-backed), and the auxiliary Steiner tree cost c(T_k^i).
// Each destination enters at its cheapest server, the first in subset
// order on ties. It fails with ErrUnreachable when some destination
// cannot be reached through any subset server, and with errDominated —
// before any KMB step — when the entry servers are a proper subset of
// subset. s must have been prepared by ev.
func (ev *closureEvaluator) steiner(
	subset []graph.NodeID, omega map[graph.NodeID]float64, s *evalScratch,
) (servers []graph.NodeID, realEdges []graph.EdgeID, auxCost float64, err error) {
	sub := ev.resolve(subset, omega, s)
	s.via, s.omega = s.via[:0], s.omega[:0]
	entered := 0
	for _, d := range ev.req.Destinations {
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
			return nil, nil, 0, ErrUnreachable
		}
		if !sub[bestI].entered {
			sub[bestI].entered = true
			entered++
		}
		s.via = append(s.via, sub[bestI].sp)
		s.omega = append(s.omega, sub[bestI].omega)
	}
	if entered < len(subset) && !disableSubsetPruning {
		return nil, nil, 0, errDominated
	}
	servers, err = s.kmb.SweepRow(s.via, s.omega, &s.tree)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	return servers, s.tree.EdgeIDs, s.tree.Weight, nil
}

// steinerRooted builds a KMB tree over {root} ∪ D_k from the
// precomputed per-server and per-destination Dijkstras. It realises
// the single-server "rooted" candidate (route to the server first,
// then distribute), which is always in the solution space of the
// problem and complements the virtual-source construction whose
// closure offsets all source-side distances by ω. The root keeps its
// own closure node even when it is a destination. s must have been
// prepared by ev.
func (ev *closureEvaluator) steinerRooted(
	root graph.NodeID, s *evalScratch,
) (realEdges []graph.EdgeID, cost float64, err error) {
	spRoot, ok := ev.spSrv[root]
	if !ok {
		return nil, 0, fmt.Errorf("%w: server %d has no precomputed paths", ErrUnreachable, root)
	}
	s.via = s.via[:0]
	for _, d := range ev.req.Destinations {
		if spRoot.Dist[d] >= graph.Infinity {
			return nil, 0, fmt.Errorf("%w: destination %d from server %d", ErrUnreachable, d, root)
		}
		s.via = append(s.via, spRoot)
	}
	if _, err := s.kmb.SweepRow(s.via, nil, &s.tree); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	return s.tree.EdgeIDs, s.tree.Weight, nil
}
