package core

import (
	"context"
	"fmt"
	"sync"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// SPPlanner is the evaluation's online baseline heuristic SP (paper
// §VI.A): it removes links and servers without enough available
// resources, assigns every remaining link the same unit weight, and
// for each candidate server v picks a shortest path s_k→v plus the
// single-source shortest-path tree rooted at v spanning the
// destinations, keeping the minimum-cost combination. Unlike
// Online_CP it ignores resource utilisation, so it piles load onto
// already-busy links.
type SPPlanner struct{}

// NewSPPlanner returns an adaptive-SP planner.
func NewSPPlanner() *SPPlanner { return &SPPlanner{} }

// Name identifies the algorithm.
func (p *SPPlanner) Name() string { return "SP" }

// Plan proposes the cheapest shortest-path combination on the residual
// network with uniform link weights (the arena is unused).
func (p *SPPlanner) Plan(
	ctx context.Context, nw *sdn.Network, req *multicast.Request, _ *PlanArena,
) (*Solution, error) {
	if err := validateInput(nw, req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	// Residual network with uniform link weights. The work graph is
	// request-specific (residual pruning), so the SP-tree cache lives
	// for this plan only — it still dedupes the source tree when the
	// source doubles as a candidate server.
	w := buildWorkGraph(nw.Graph(), nw, req, true, func(graph.EdgeID) float64 { return 1 })
	if len(w.servers) == 0 {
		return nil, fmt.Errorf("%w: %w", ErrRejected, ErrComputeExhausted)
	}
	return planSP(ctx, nw, req, w, newSPCache(w.g), nil)
}

// planSP is the shortest-path server selection shared by the adaptive
// and static SP planners: pick the server minimising (distance from
// the source) + (hop count of the SP tree restricted to destination
// paths), then realise the pseudo tree from the cached SP trees.
// eligible, when non-nil, filters candidate servers beyond the work
// graph's own pruning. ctx is checked between candidate servers.
func planSP(
	ctx context.Context, nw *sdn.Network, req *multicast.Request, w *workGraph, sp *spCache,
	eligible func(graph.NodeID) bool,
) (*Solution, error) {
	spSrc, err := sp.from(req.Source)
	if err != nil {
		return nil, err
	}
	var (
		bestCost   = graph.Infinity
		bestServer = graph.NodeID(-1)
		bestSP     *graph.ShortestPaths
	)
	for _, v := range w.servers {
		if cerr := ctx.Err(); cerr != nil {
			return nil, canceled(cerr)
		}
		if !spSrc.Reachable(v) {
			continue
		}
		if eligible != nil && !eligible(v) {
			continue
		}
		spV, derr := sp.from(v)
		if derr != nil {
			return nil, derr
		}
		cost := spSrc.Dist[v]
		feasible := true
		// Union of shortest paths v→d: hop count of the SP tree
		// restricted to destination paths.
		counted := make(map[graph.EdgeID]struct{})
		for _, d := range req.Destinations {
			if !spV.Reachable(d) {
				feasible = false
				break
			}
			_, edges, _ := spV.PathTo(d)
			for _, e := range edges {
				if _, ok := counted[e]; !ok {
					counted[e] = struct{}{}
					cost++
				}
			}
		}
		if !feasible {
			continue
		}
		if cost < bestCost {
			bestCost, bestServer, bestSP = cost, v, spV
		}
	}
	if bestServer == -1 {
		return nil, fmt.Errorf("%w: %w: no server reaches source and all destinations",
			ErrRejected, ErrUnreachable)
	}

	tree := multicast.NewPseudoTree(req.Source, req.Destinations, []graph.NodeID{bestServer})
	nodes, edges, ok := spSrc.PathTo(bestServer)
	if !ok {
		return nil, fmt.Errorf("%w: server %d", ErrUnreachable, bestServer)
	}
	if err := tree.AddPath(nodes, edges, false); err != nil {
		return nil, err
	}
	for _, d := range req.Destinations {
		nodes, edges, ok = bestSP.PathTo(d)
		if !ok {
			return nil, fmt.Errorf("%w: destination %d", ErrUnreachable, d)
		}
		if err := tree.AddPath(nodes, edges, true); err != nil {
			return nil, err
		}
	}
	return &Solution{
		Request:         req,
		Tree:            tree,
		Servers:         []graph.NodeID{bestServer},
		OperationalCost: OperationalCost(nw, req, tree),
		SelectionCost:   bestCost,
	}, nil
}

// SPStaticPlanner is a congestion-oblivious variant of SP that models
// static shortest-path multicast routing (fixed routes, as in plain
// IP multicast over static routing tables): trees are always computed
// on the pristine topology with uniform weights, and a request whose
// fixed tree no longer fits the residual capacities is rejected — no
// re-routing around loaded links. It quantifies how much of
// Online_CP's advantage comes from load awareness: against this
// baseline the admission gap of the paper's Figs. 8-9 opens fully.
//
// Because its work graph is the pristine topology with
// uniform weights — independent of residual load and of the request —
// the planner memoizes that graph and its shortest-path trees across
// Plan calls, keyed on the network's StructureVersion; only failure
// injection (which changes the usable topology) invalidates the cache.
// Residual snapshots (engine views) share one logical topology with
// the live network, so the cache also carries across them.
//
// A planner instance serves one logical network and its clones; do not
// share it across unrelated networks.
type SPStaticPlanner struct {
	mu      sync.Mutex
	nodes   int
	edges   int
	version uint64
	w       *workGraph
	sp      *spCache
}

// NewSPStaticPlanner returns a static-routes SP planner.
func NewSPStaticPlanner() *SPStaticPlanner { return &SPStaticPlanner{} }

// Name identifies the algorithm.
func (p *SPStaticPlanner) Name() string { return "SP_Static" }

// view returns the memoized pristine work graph and SP-tree cache,
// rebuilding both when the network's usable structure changed.
func (p *SPStaticPlanner) view(nw *sdn.Network, req *multicast.Request) (*workGraph, *spCache) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w == nil || p.nodes != nw.NumNodes() || p.edges != nw.NumEdges() ||
		p.version != nw.StructureVersion() {
		// Pristine topology with uniform weights: no residual
		// filtering, so the view is identical for every request at
		// this structure version. The view outlives nw's graph, which
		// an engine snapshot refill overwrites in place, so it is
		// built on a copy.
		p.w = buildWorkGraph(nw.Graph().Clone(), nw, req, false, func(graph.EdgeID) float64 { return 1 })
		p.sp = newSPCache(p.w.g)
		p.nodes, p.edges, p.version = nw.NumNodes(), nw.NumEdges(), nw.StructureVersion()
	}
	return p.w, p.sp
}

// Plan proposes the fixed shortest-path tree for req on the pristine
// topology; the commit step decides whether it still fits the residual
// capacities. Static routing still will not place the VM on a server
// that cannot host it. The arena is unused.
func (p *SPStaticPlanner) Plan(
	ctx context.Context, nw *sdn.Network, req *multicast.Request, _ *PlanArena,
) (*Solution, error) {
	if err := validateInput(nw, req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	w, sp := p.view(nw, req)
	demand := req.ComputeDemandMHz()
	sol, err := planSP(ctx, nw, req, w, sp, func(v graph.NodeID) bool {
		return nw.ResidualCompute(v) >= demand
	})
	if err != nil {
		if IsRejection(err) {
			return nil, fmt.Errorf("%w: no feasible server on static routes", err)
		}
		return nil, err
	}
	return sol, nil
}
