package core

import (
	"context"
	"fmt"
	"math"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// Distributed chain placement (§VII's open problem). The paper
// consolidates each request's whole service chain into one VM on one
// server;
// DistCPPlanner relaxes that: the chain's VNF sequence may be split
// into up to SplitLimit contiguous segments, each hosted on its own
// server, with the unprocessed stream steered through the segment hosts
// in chain order before fanning out to the destinations. Segment hosts
// are chosen under the same exponential resource-cost model and
// admission thresholds as Online_CP, so the competitive-analysis
// machinery (thresholds (a) and (b), absolute exponential selection
// costs) carries over per segment. The payoff is feasibility under
// compute pressure: a chain no single server can host may still fit as
// two half-chains on two servers.
//
// Enumeration is deterministic: segment counts ascend, compositions of
// the chain into segments are generated in lexicographic order, and
// server tuples are explored in ascending node-ID order per position —
// with the strict `cost < best` comparison this realises the
// (cost, enumeration-index) tie-break the determinism oracles pin.

// DefaultSplitLimit is the evaluation's segment budget: two segments
// already covers the "chain too big for any one server" failure mode
// while keeping the tuple sweep near Online_CP's candidate loop cost.
const DefaultSplitLimit = 2

// DistCPPlanner is the distributed-chain online planner. Like
// CPPlanner it serves one logical network plus read-only clones, and
// memoizes residual work graphs across Plan calls.
type DistCPPlanner struct {
	model CostModel
	split int
	cache workGraphCache
}

// NewDistCPPlanner returns a distributed-chain planner that may split a
// request's chain across up to splitLimit servers.
func NewDistCPPlanner(model CostModel, splitLimit int) (*DistCPPlanner, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if splitLimit < 1 {
		return nil, fmt.Errorf("core: split limit must be >= 1, got %d", splitLimit)
	}
	p := &DistCPPlanner{model: model, split: splitLimit}
	// Identical residual-view recipe to CPPlanner, so the work-graph
	// cache is carried across residual epochs exactly as Online_CP's is.
	p.cache.priceMarginal(model)
	return p, nil
}

// Name identifies the algorithm.
func (p *DistCPPlanner) Name() string { return "Dist_CP" }

// minSegmentDemand is the smallest compute demand any single segment of
// any admissible split can impose: the full chain when no split is
// possible, otherwise the cheapest single function (a composition may
// always isolate one function into its own segment).
func (p *DistCPPlanner) minSegmentDemand(req *multicast.Request) float64 {
	funcs := req.Chain.Functions()
	if len(funcs) <= 1 || p.split == 1 {
		return req.ComputeDemandMHz()
	}
	minD := math.Inf(1)
	for _, f := range funcs {
		if d := f.DemandMHz(req.BandwidthMbps); d < minD {
			minD = d
		}
	}
	return minD
}

// FastReject reports the cheap provable rejections of Dist_CP: input
// validation, compute exhaustion (no up server can host even the
// smallest possible segment, so no split fits anywhere), and the whole
// candidate pool pricing over σ_v (every segment position would be
// skipped by threshold (a)). Each mirrors the exact error Plan would
// produce; anything subtler returns nil and defers to the full
// plan.
func (p *DistCPPlanner) FastReject(view *sdn.Network, req *multicast.Request) error {
	if err := validateInput(view, req); err != nil {
		return fmt.Errorf("%w: %v", ErrRejected, err)
	}
	anyEligible, anyUnderThreshold := p.model.scanServers(view, p.minSegmentDemand(req))
	if !anyEligible {
		return fmt.Errorf("%w: %w: no split fits %0.f MHz",
			ErrRejected, ErrComputeExhausted, req.ComputeDemandMHz())
	}
	if !anyUnderThreshold {
		return fmt.Errorf("%w: %w: no admissible split/tree",
			ErrRejected, ErrThresholdExceeded)
	}
	return nil
}

// distFinal memoizes the processed fan-out for one terminal server: the
// Steiner tree over {v} ∪ D_k (edge IDs are copied out of the arena
// scratch), its absolute link cost, and whether threshold (b) admits
// every tree link. One request shares terminals across every candidate
// tuple ending at v, so the tree is computed once per plan.
type distFinal struct {
	ok    bool
	edges []graph.EdgeID // link IDs
	cT    float64
}

// distHop memoizes one inter-segment steering hop from → to: the
// absolute exponential cost of the shortest residual path, and whether
// threshold (b) admits every path link.
type distHop struct {
	ok   bool
	cost float64
}

type distHopKey struct{ from, to graph.NodeID }

// Plan computes the cheapest feasible distributed pseudo-multicast tree
// for req under the exponential weights and the admission thresholds.
// ctx is checked between candidate segment counts and before each
// Steiner construction.
func (p *DistCPPlanner) Plan(
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

	// Candidate pool: up servers that can host at least the smallest
	// possible segment. The cached work graph's server list filters by
	// the *full* chain demand, which is exactly the consolidation
	// assumption this planner relaxes — so eligibility is re-derived
	// here (ascending node-ID order via VisitServers) and re-checked
	// per position against the segment's own demand.
	minSeg := p.minSegmentDemand(req)
	var pool []graph.NodeID
	nw.VisitServers(func(v graph.NodeID) bool {
		if nw.ServerUp(v) && nw.ResidualCompute(v) >= minSeg {
			pool = append(pool, v)
		}
		return true
	})
	if len(pool) == 0 {
		return nil, fmt.Errorf("%w: %w: no split fits %0.f MHz",
			ErrRejected, ErrComputeExhausted, req.ComputeDemandMHz())
	}

	// Destination-rooted Dijkstras are shared by every candidate
	// terminal server's Steiner construction.
	arena.dstSPs = arena.dstSPs[:0]
	for _, d := range req.Destinations {
		spD, derr := spc.fromWith(d, &arena.ws)
		if derr != nil {
			return nil, derr
		}
		arena.dstSPs = append(arena.dstSPs, spD)
	}
	// One KMB sweep over D_k prices every terminal server's fan-out.
	if err := arena.steiner.BeginSweep(w.g, req.Destinations, arena.dstSPs, 0); err != nil {
		return nil, err
	}
	arena.prices.begin(p.model, nw)

	funcs := req.Chain.Functions()
	maxM := p.split
	if len(funcs) > 0 && maxM > len(funcs) {
		maxM = len(funcs)
	}
	if len(funcs) == 0 {
		maxM = 1
	}
	demands := make([]float64, len(funcs))
	for i, f := range funcs {
		demands[i] = f.DemandMHz(req.BandwidthMbps)
	}

	s := &distSearch{
		p: p, nw: nw, w: w, spc: spc, req: req, arena: arena,
		pool:   pool,
		finals: make(map[graph.NodeID]distFinal, len(pool)),
		hops:   make(map[distHopKey]distHop),
		best:   graph.Infinity,
	}

	// Segment counts ascend; compositions of the chain into m positive
	// parts are lexicographic in the part sizes; tuples are explored
	// position-by-position over the ascending pool. The first strict
	// improvement wins ties.
	segd := make([]float64, 0, maxM)
	servers := make([]graph.NodeID, 0, maxM)
	for m := 1; m <= maxM; m++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, canceled(cerr)
		}
		if err := forEachComposition(len(funcs), m, func(parts []int) error {
			segd = segd[:0]
			idx := 0
			for _, size := range parts {
				var d float64
				for j := 0; j < size; j++ {
					d += demands[idx]
					idx++
				}
				segd = append(segd, d)
			}
			if len(funcs) == 0 { // empty chain: one zero-demand segment
				segd = append(segd, 0)
			}
			return s.assign(ctx, segd, servers[:0], req.Source, 0)
		}); err != nil {
			return nil, err
		}
	}

	if s.bestTree == nil {
		return nil, fmt.Errorf("%w: %w: no admissible split/tree",
			ErrRejected, ErrThresholdExceeded)
	}
	return &Solution{
		Request:         req,
		Tree:            s.bestTree,
		Servers:         s.bestServers,
		OperationalCost: OperationalCost(nw, req, s.bestTree),
		SelectionCost:   s.best,
	}, nil
}

// distSearch carries one Plan invocation's state through the
// tuple sweep.
type distSearch struct {
	p     *DistCPPlanner
	nw    *sdn.Network
	w     *workGraph
	spc   *spCache
	req   *multicast.Request
	arena *PlanArena

	pool   []graph.NodeID
	finals map[graph.NodeID]distFinal
	hops   map[distHopKey]distHop

	best        float64
	bestTree    *multicast.PseudoTree
	bestServers []graph.NodeID
	bestDemands []float64
}

// assign extends a partial server tuple at segment position i with
// every admissible candidate, accumulating the exact selection cost
// (steering paths + server costs) and recursing. acc is the partial
// cost through position i-1; pruning on acc >= best is sound because
// every remaining term is non-negative, and it cannot change the
// winner under the strict `sel < best` comparison.
func (s *distSearch) assign(ctx context.Context, segd []float64, chosen []graph.NodeID, prev graph.NodeID, acc float64) error {
	i := len(chosen)
	last := i == len(segd)-1
	for _, v := range s.pool {
		if tupleContains(chosen, v) {
			continue // segments live on distinct servers
		}
		if s.nw.ResidualCompute(v) < segd[i] {
			continue
		}
		// Threshold (a) per segment host (Algorithm 2, step 7).
		if s.arena.prices.serverWeight(v) >= s.p.model.SigmaV {
			continue
		}
		hop := s.hopTo(prev, v)
		if !hop.ok {
			continue
		}
		c := acc + hop.cost + s.arena.prices.serverCost(v)
		if c >= s.best {
			continue
		}
		if !last {
			if err := s.assign(ctx, segd, append(chosen, v), v, c); err != nil {
				return err
			}
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return canceled(cerr)
		}
		fin := s.finalFor(v)
		if !fin.ok {
			continue
		}
		sel := c + fin.cT
		if sel >= s.best {
			continue
		}
		tuple := append(chosen, v)
		tree, err := s.realize(tuple, segd, fin)
		if err != nil {
			continue
		}
		s.best = sel
		s.bestTree = tree
		s.bestServers = append([]graph.NodeID(nil), tuple...)
		s.bestDemands = append([]float64(nil), segd...)
	}
	return nil
}

// hopTo resolves the steering hop from → to: shortest residual path
// cost in absolute exponential link costs, with threshold (b) applied
// per path link. from == to is a zero-cost no-op (the next segment
// shares the previous host's switch — excluded by distinctness for
// servers, but the source may coincide with the first host).
func (s *distSearch) hopTo(from, to graph.NodeID) distHop {
	if from == to {
		return distHop{ok: true}
	}
	key := distHopKey{from: from, to: to}
	if h, ok := s.hops[key]; ok {
		return h
	}
	h := distHop{}
	sp, err := s.spc.fromWith(from, &s.arena.ws)
	if err == nil && sp.Reachable(to) {
		h.ok = true
		prices := &s.arena.prices
		sp.VisitPathEdges(to, func(e graph.EdgeID) bool {
			if prices.linkWeight(e) >= s.p.model.SigmaE {
				h.ok = false
				return false
			}
			h.cost += prices.linkCost(e)
			return true
		})
	}
	s.hops[key] = h
	return h
}

// finalFor resolves the processed fan-out for terminal server v: the
// Steiner tree over {v} ∪ D_k on the residual work graph, threshold (b)
// per tree link, and its absolute link cost.
func (s *distSearch) finalFor(v graph.NodeID) distFinal {
	if fin, ok := s.finals[v]; ok {
		return fin
	}
	fin := distFinal{}
	// No Dijkstra rooted at v: the plan's sweep over D_k reads v's
	// closure row out of the destinations' trees.
	st := &s.arena.trees[0]
	if s.arena.steiner.SweepTree(v, st) == nil {
		prices := &s.arena.prices
		fin.ok = true
		for _, e := range st.EdgeIDs {
			if prices.linkWeight(e) >= s.p.model.SigmaE {
				fin.ok = false
				break
			}
			fin.cT += prices.linkCost(e)
		}
		if fin.ok {
			fin.edges = append([]graph.EdgeID(nil), st.EdgeIDs...)
		}
	}
	s.finals[v] = fin
	return fin
}

// realize materialises one tuple's pseudo tree: the unprocessed stream
// chains shortest residual paths source → v_1 → … → v_m through the
// segment hosts in chain order, and the processed stream fans out from
// the terminal host v_m along its Steiner tree. Per-segment compute
// demands ride on the tree (PseudoTree.ServerDemands), so allocation
// and pricing charge each host its own segment, not the whole chain.
func (s *distSearch) realize(tuple []graph.NodeID, segd []float64, fin distFinal) (*multicast.PseudoTree, error) {
	tree := multicast.NewPseudoTree(s.req.Source, s.req.Destinations, tuple)
	tree.ServerDemands = append([]float64(nil), segd...)
	prev := s.req.Source
	for _, v := range tuple {
		if v == prev {
			continue
		}
		sp, err := s.spc.fromWith(prev, &s.arena.ws)
		if err != nil {
			return nil, err
		}
		nodes, edges, ok := sp.PathTo(v)
		if !ok {
			return nil, fmt.Errorf("%w: segment host %d", ErrUnreachable, v)
		}
		if err := tree.AddPath(nodes, edges, false); err != nil {
			return nil, err
		}
		prev = v
	}
	vm := tuple[len(tuple)-1]
	rt, err := graph.NewRootedTree(s.w.g, fin.edges, vm)
	if err != nil {
		return nil, err
	}
	for _, d := range s.req.Destinations {
		nodes, edges, perr := rt.PathBetween(vm, d)
		if perr != nil {
			return nil, perr
		}
		if err := tree.AddPath(nodes, edges, true); err != nil {
			return nil, err
		}
	}
	return tree, nil
}

// tupleContains reports whether v was already chosen (tuples are tiny —
// a linear scan beats any set).
func tupleContains(chosen []graph.NodeID, v graph.NodeID) bool {
	for _, c := range chosen {
		if c == v {
			return true
		}
	}
	return false
}

// forEachComposition enumerates the compositions of n into m positive
// parts in lexicographic order of the part sizes, calling fn with a
// reused slice. n == 0 (empty chain) yields one empty composition.
func forEachComposition(n, m int, fn func(parts []int) error) error {
	if n == 0 {
		return fn(nil)
	}
	parts := make([]int, m)
	var rec func(pos, left int) error
	rec = func(pos, left int) error {
		if pos == m-1 {
			parts[pos] = left
			return fn(parts)
		}
		// Leave at least one function for each remaining segment.
		for size := 1; size <= left-(m-1-pos); size++ {
			parts[pos] = size
			if err := rec(pos+1, left-size); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, n)
}
