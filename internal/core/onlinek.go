package core

import (
	"context"
	"fmt"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// CPKPlanner is an extension beyond the paper: online admission with
// service chains replicated on up to K servers. The paper proves its
// competitive ratio only for K = 1 and leaves the general case open;
// CPKPlanner combines Appro_Multi's server-subset search with
// Online_CP's exponential cost model — subsets are evaluated on the
// residual network priced with marginal exponential link weights, and
// the same per-resource admission thresholds apply (every tree link
// must satisfy w_e(k) < σ_e, every used server w_v(k) < σ_v). No
// competitive-ratio claim is made; the harness measures it
// empirically (ext-onlinek).
//
// Like CPPlanner it memoizes residual work graphs per (structure,
// mutation, request parameter) key, so one instance must serve one
// logical network and its read-only clones.
type CPKPlanner struct {
	model CostModel
	k     int
	cache workGraphCache
}

// NewCPKPlanner returns a K-server online planner.
func NewCPKPlanner(model CostModel, k int) (*CPKPlanner, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("core: invalid K=%d (need K >= 1)", k)
	}
	p := &CPKPlanner{model: model, k: k}
	p.cache.priceMarginal(model)
	return p, nil
}

// Name identifies the algorithm.
func (p *CPKPlanner) Name() string { return "Online_CPK" }

// Plan proposes the cheapest admissible tree over server subsets of
// size <= K under the exponential cost model's thresholds. ctx is
// checked between candidate subsets.
func (p *CPKPlanner) Plan(
	ctx context.Context, nw *sdn.Network, req *multicast.Request, arena *PlanArena,
) (*Solution, error) {
	if arena == nil {
		arena = arenaPool.Get().(*PlanArena)
		defer arenaPool.Put(arena)
	}
	if err := validateInput(nw, req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	w, spc := p.cache.acquire(nw, req)
	if len(w.servers) == 0 {
		return nil, fmt.Errorf("%w: %w", ErrRejected, ErrComputeExhausted)
	}
	spSrc, err := spc.fromWith(req.Source, &arena.ws)
	if err != nil {
		return nil, err
	}
	// Threshold (a) per server, plus reachability.
	var candidates []graph.NodeID
	omega := make(map[graph.NodeID]float64)
	spSrv := make(map[graph.NodeID]*graph.ShortestPaths)
	for _, v := range w.servers {
		if !spSrc.Reachable(v) {
			continue
		}
		wv := p.model.ServerWeight(nw, v)
		if wv >= p.model.SigmaV {
			continue
		}
		sp, derr := spc.fromWith(v, &arena.ws)
		if derr != nil {
			return nil, derr
		}
		candidates = append(candidates, v)
		spSrv[v] = sp
		omega[v] = spSrc.Dist[v] + wv
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: %w: every server over threshold or cut off",
			ErrRejected, ErrThresholdExceeded)
	}
	for _, d := range req.Destinations {
		if !spSrc.Reachable(d) {
			return nil, fmt.Errorf("%w: %w: destination %d", ErrRejected, ErrUnreachable, d)
		}
	}
	ev, err := newClosureEvaluator(w, req, spSrv, spc, &arena.ws)
	if err != nil {
		return nil, err
	}

	ev.prepare(&arena.eval)

	var (
		bestSel  = graph.Infinity
		bestTree *multicast.PseudoTree
	)
	// consider prices one candidate on scratch and builds its tree only
	// when it beats the incumbent.
	consider := func(servers []graph.NodeID, realEdges []graph.EdgeID) {
		loads, ok := treeLoads(w, spSrc, servers, realEdges, &arena.eval)
		if !ok {
			return
		}
		// Threshold (b): every tree link under σ_e (pre-allocation
		// weights, as in Online_CP). Sum in ascending edge order: float
		// addition is order-dependent, and any other order would make
		// near-tie subset selection differ run to run.
		sel := 0.0
		for _, l := range loads {
			if p.model.LinkWeight(nw, w.hostEdge(l.edge)) >= p.model.SigmaE {
				return
			}
			sel += float64(l.load) * w.g.Weight(l.edge)
		}
		for _, v := range servers {
			sel += p.model.ServerWeight(nw, v)
		}
		if sel >= bestSel {
			return
		}
		if tree, derr := decompose(w, req, spSrc, servers, realEdges, &arena.eval); derr == nil {
			bestSel, bestTree = sel, tree
		}
	}
	forEachSubset(candidates, p.k, func(subset []graph.NodeID) bool {
		if ctx.Err() != nil {
			return false
		}
		if servers, realEdges, _, serr := ev.steiner(subset, omega, &arena.eval); serr == nil {
			consider(servers, realEdges)
		}
		return true
	})
	for i, v := range candidates {
		if cerr := ctx.Err(); cerr != nil {
			return nil, canceled(cerr)
		}
		if realEdges, _, rerr := ev.steinerRooted(v, &arena.eval); rerr == nil {
			consider(candidates[i:i+1], realEdges)
		}
	}
	if bestTree == nil {
		return nil, fmt.Errorf("%w: %w: no admissible tree", ErrRejected, ErrThresholdExceeded)
	}
	return &Solution{
		Request:         req,
		Tree:            bestTree,
		Servers:         bestTree.Servers,
		OperationalCost: OperationalCost(nw, req, bestTree),
		SelectionCost:   bestSel,
	}, nil
}
