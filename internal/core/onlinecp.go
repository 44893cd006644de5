package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// CPPlanner implements Algorithm 2 (Online_CP): online admission of
// NFV-enabled multicast requests with K = 1 under the exponential cost
// model, with competitive ratio O(log |V|). It is the pure planning
// half — the cheapest feasible pseudo-multicast tree for a request under
// the exponential weights and the admission thresholds, with no side
// effects on the network view it plans against; pair it with
// NewAdmitter (or an engine) to admit.
//
// A planner instance serves one logical network and its read-only
// clones (the same constraint SPStaticPlanner documents): it memoizes
// residual work graphs keyed on the network's structure and mutation
// versions, which identify a residual state only within one network
// family.
type CPPlanner struct {
	model CostModel
	cache workGraphCache
}

// NewCPPlanner returns an Online_CP planner with the given cost model.
func NewCPPlanner(model CostModel) (*CPPlanner, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	p := &CPPlanner{model: model}
	p.cache.priceMarginal(model)
	return p, nil
}

// Name identifies the algorithm.
func (p *CPPlanner) Name() string { return "Online_CP" }

// Plan computes the cheapest feasible pseudo-multicast tree for req
// under the exponential weights and the admission thresholds. ctx is
// checked between candidate servers, so a canceled plan aborts after at
// most one more Steiner construction.
func (p *CPPlanner) Plan(
	ctx context.Context, nw *sdn.Network, req *multicast.Request, arena *PlanArena,
) (*Solution, error) {
	if arena == nil {
		arena = arenaPool.Get().(*PlanArena)
		defer arenaPool.Put(arena)
	}
	if err := validateInput(nw, req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	// The residual work graph and shortest-path cache for (nw, req):
	// cached for this residual state, or built (see workGraphCache).
	w, spc := p.cache.acquire(nw, req)
	if len(w.servers) == 0 {
		return nil, fmt.Errorf("%w: %w: %0.f MHz demanded",
			ErrRejected, ErrComputeExhausted, req.ComputeDemandMHz())
	}

	// Every candidate server shares the terminals {s_k} ∪ D_k, so the
	// source- and destination-rooted Dijkstras run once per request
	// (through the epoch cache: once per residual state), and one KMB
	// sweep over those fixed terminals prices every candidate. The
	// candidate itself gets no Dijkstra: the work graph is undirected,
	// so the sweep reads its closure row out of the fixed trees — 1+|D_k|
	// Dijkstras per plan however many servers are tried.
	spSrc, err := spc.fromWith(req.Source, &arena.ws)
	if err != nil {
		return nil, err
	}
	arena.terms = append(arena.terms[:0], req.Source)
	arena.sps = append(arena.sps[:0], spSrc)
	dMax := 0.0 // farthest destination from the source
	for _, d := range req.Destinations {
		spD, derr := spc.fromWith(d, &arena.ws)
		if derr != nil {
			return nil, derr
		}
		arena.terms = append(arena.terms, d)
		arena.sps = append(arena.sps, spD)
		if dd := spSrc.Dist[d]; dd > dMax {
			dMax = dd
		}
	}
	if err := arena.steiner.BeginSweep(w.g, arena.terms, arena.sps, 1); err != nil {
		return nil, err
	}
	prices := &arena.prices
	prices.begin(p.model, nw)

	var (
		bestSelection = graph.Infinity
		bestServer    = graph.NodeID(-1)
		bestU         graph.NodeID // LCA(v, D_k) in the winner's tree
		bestRooted    bool         // arena.rooted still holds the winner's tree
		cand, best    = &arena.trees[0], &arena.trees[1]
	)
	for _, v := range w.servers {
		if cerr := ctx.Err(); cerr != nil {
			return nil, canceled(cerr)
		}
		// Threshold (a): overloaded servers are not considered
		// (Algorithm 2, step 7).
		if prices.serverWeight(v) >= p.model.SigmaV {
			continue
		}
		// Pre-KMB cut: any Steiner tree over {s_k, v} ∪ D_k contains a
		// path s_k→v and a path to the farthest destination, so its
		// work-graph weight is at least max(dist(s,v), max_d dist(s,d)).
		// This is NOT an admissible bound on the selection cost it is
		// compared with: spSrc.Dist is in work-graph weights — the
		// request's marginal weight β^{util after} − 1 per link — while
		// bestSelection sums absolute costs B_e·(β^{util now} − 1). Where
		// links carry load the absolute costs are the larger (B_e is in
		// the thousands) and only losers are cut; on an idle network
		// (link costs 0, or float residue after admit→depart) the cut
		// discards cheaper candidates: 4,000 seed-7 admit→depart requests
		// on Waxman-250 cost 33,620,663 with it, 28,479,615 without. The
		// recorded decisions (bench/expected.json, the oracles) include
		// it, so it stays until the decision-changing change (the ROADMAP
		// item on canonical ties and an admissible cut) replaces it with
		// an admissible cut and a reference planner. spSrc.Dist[v] =
		// Infinity reproduces the KMB-unreachable `continue`.
		if lower0 := maxf(spSrc.Dist[v], dMax) + prices.serverCost(v); lower0 >= bestSelection {
			continue
		}
		if err := arena.steiner.SweepTree(v, cand); err != nil {
			continue // this server is cut off in the residual network
		}
		// Threshold (b): reject trees over overloaded links
		// (Algorithm 2, step 9). We apply the threshold per link:
		// admission requires w_e(k) < σ_e on every tree link, the
		// bound Lemma 1 needs, and a rejection still implies
		// Σ_e w_e(k) >= σ_e as Lemma 2 requires. (Summing over the
		// tree instead would cap average link utilisation near
		// log_β(σ_e/|T|), rejecting most requests long before the
		// network fills.)
		overloaded := false
		for _, e := range cand.EdgeIDs {
			if prices.linkWeight(e) >= p.model.SigmaE {
				overloaded = true
				break
			}
		}
		if overloaded {
			continue
		}
		// Selection cost (Algorithm 2, step 12):
		// cost(k) = c(T) + c_v(SC_k) + c(p_{v,u}) in absolute
		// exponential costs. The back-tracking term c(p_{v,u}) is a sum
		// of non-negative link costs, so c(T) + c_v(SC_k) lower-bounds
		// the selection cost — candidates that cannot beat the incumbent
		// skip rooting their tree entirely. A skipped candidate's
		// true cost satisfies sel >= lower >= bestSelection, so it would
		// have lost the strict `sel < bestSelection` comparison anyway:
		// the chosen server and tree are bit-identical with or without
		// the pruning.
		var cT float64
		for _, e := range cand.EdgeIDs {
			cT += prices.linkCost(e)
		}
		lower := cT + prices.serverCost(v)
		if lower >= bestSelection {
			continue
		}
		u, err := rootAtSource(w, req, v, cand, arena)
		bestRooted = false
		if err != nil {
			continue
		}
		var retCost float64 // c(p_{v,u}), from v upwards
		for at := v; at != u; at = arena.rooted.parentNode[at] {
			retCost += prices.linkCost(arena.rooted.parentEdge[at])
		}
		if sel := lower + retCost; sel < bestSelection {
			bestSelection, bestServer, bestU, bestRooted = sel, v, u, true
			cand, best = best, cand
		}
	}
	if bestServer < 0 {
		return nil, fmt.Errorf("%w: %w: no admissible server/tree",
			ErrRejected, ErrThresholdExceeded)
	}
	// Candidates were only priced; the winner alone gets a pseudo tree,
	// from the rooted view its pricing left unless a later candidate
	// re-rooted it.
	if !bestRooted {
		if bestU, err = rootAtSource(w, req, bestServer, best, arena); err != nil {
			return nil, err
		}
	}
	bestTree := realizeSingleServer(req, bestServer, bestU, best.EdgeIDs, arena)
	return &Solution{
		Request:         req,
		Tree:            bestTree,
		Servers:         []graph.NodeID{bestServer},
		OperationalCost: OperationalCost(nw, req, bestTree),
		SelectionCost:   bestSelection,
	}, nil
}

// rootAtSource roots the Steiner tree st over {s_k, v} ∪ D_k at s_k in
// the arena's rooted view and returns u = LCA(v, d_1, ..., d_m)
// (Algorithm 2, step 10), the node the processed stream back-tracks to.
// It fails when st is not a tree containing the source, the server and
// every destination.
func rootAtSource(
	w *workGraph, req *multicast.Request, v graph.NodeID, st *graph.SteinerTree, arena *PlanArena,
) (graph.NodeID, error) {
	rt := &arena.rooted
	if err := rt.root(w.g, st.EdgeIDs, req.Source); err != nil {
		return 0, err
	}
	u, ok := v, rt.inTree(v)
	for _, d := range req.Destinations {
		if !ok {
			break
		}
		u, ok = rt.lca(u, d)
	}
	if !ok {
		return 0, fmt.Errorf("%w: server %d or a destination outside the tree",
			graph.ErrNodeOutOfRange, v)
	}
	return u, nil
}

// realizeSingleServer turns the Steiner tree over {s_k, v} ∪ D_k that
// rootAtSource left rooted in the arena, edges its ascending EdgeIDs and
// u its returned LCA, into the pseudo tree of paper §V.B: unprocessed
// traffic follows the tree path s_k→v; processed traffic serves v's
// subtree directly and
// back-tracks from v to u = LCA(v, d_1, ..., d_m) for the remaining
// destinations. Shared by CPPlanner.Plan — which prices every
// candidate's back-tracking path but realises the winner only — and
// RepairReroute, so a repaired tree has exactly the structure a fresh
// plan would produce.
//
// Every path joins a node to one of its ancestors (s_k is the root; u
// is an ancestor of v and of every destination), so it is the parent
// walk from the lower end, its hops turned round when traffic flows
// down, away from the root. The hops come out distinct, in the order
// of the paths, with no duplicate scan: the unprocessed and processed
// streams never share a hop, nor does the back-track (child to parent)
// with a fan-out (parent to child), and a fan-out walk stops at the
// first node an earlier fan-out reached (DESIGN.md §8.1, "Realize in
// linear time"). The finished list is handed to the tree in one copy.
//
// The link loads need no sort: each hop's edge is counted by ID, and the
// counts are read back in the order of edges. The hops cover exactly the
// tree's edges when every leaf is a terminal, as in KMB's pruned trees
// (DESIGN.md §8.1, "Loads from the tree"); an edge no hop uses is skipped.
func realizeSingleServer(
	req *multicast.Request, v, u graph.NodeID, edges []graph.EdgeID, arena *PlanArena,
) *multicast.PseudoTree {
	rt := &arena.rooted
	reached, gen := arena.fanOutStamps(len(rt.seen))
	hop := func(at graph.NodeID, processed bool) multicast.Hop {
		return multicast.Hop{From: at, To: rt.parentNode[at], Edge: rt.parentEdge[at], Processed: processed}
	}
	// down turns hops[from:], collected bottom-up, into top-down order.
	down := func(hops []multicast.Hop, from int) {
		seg := hops[from:]
		for i := range seg {
			seg[i].From, seg[i].To = seg[i].To, seg[i].From
		}
		slices.Reverse(seg)
	}

	hops := arena.hops[:0]
	// Unprocessed: source down the tree to the server.
	for at := v; at != req.Source; at = rt.parentNode[at] {
		hops = append(hops, hop(at, false))
	}
	down(hops, 0)
	// Processed: back-track v → u.
	for at := v; at != u; at = rt.parentNode[at] {
		hops = append(hops, hop(at, true))
	}
	// Processed: fan out to every destination, from v when it lies in
	// v's subtree (the walk up from it meets v before u), else from u.
	// The walk also stops at a node an earlier fan-out reached: the
	// hops above it are in the list already.
	for _, d := range req.Destinations {
		from := len(hops)
		for at := d; at != v && at != u && reached[at] != gen; at = rt.parentNode[at] {
			reached[at] = gen
			hops = append(hops, hop(at, true))
		}
		down(hops, from)
	}
	arena.hops = hops
	return multicast.NewRealizedTree(req.Source, req.Destinations, []graph.NodeID{v}, hops, arena.linkLoads(hops, edges))
}

// IsRejection reports whether err represents an admission-policy
// rejection (as opposed to an input error).
func IsRejection(err error) bool { return errors.Is(err, ErrRejected) }

// maxf is math.Max without the NaN/signed-zero ceremony — distances
// here are non-negative and never NaN.
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
