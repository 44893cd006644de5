package core

import (
	"context"
	"fmt"
	"sort"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/parallel"
	"nfvmcast/internal/sdn"
)

// Options configures ApproMulti.
type Options struct {
	// K is the maximum number of servers used to implement the
	// service chain (the paper's constant K >= 1; default 3 as in the
	// evaluation).
	K int
	// Capacitated runs the Appro_Multi_Cap variant: the algorithm
	// works on the residual network, keeping only links with at least
	// b_k available bandwidth and servers with enough free computing
	// capacity (paper §IV.C).
	Capacitated bool
	// ExplicitAuxiliary switches to the paper-literal construction
	// that materialises the auxiliary graph G_k^i per server subset
	// (including the zero-cost source-to-server edge rule) and runs
	// the generic KMB routine on it. Slower by a factor of ~|D_k|;
	// used for cross-checking the default closure-based evaluation.
	ExplicitAuxiliary bool
	// Workers bounds the number of goroutines evaluating candidate
	// server subsets concurrently. 0 and 1 evaluate on the calling
	// goroutine (the safe default inside callers that already fan out
	// at a higher level, such as internal/sim); negative values use
	// one worker per CPU. The solution is byte-identical for every
	// setting: candidates are merged under a deterministic
	// (implementation cost, enumeration index) rule, so a parallel run
	// returns exactly the sequential solution (see DESIGN.md §8).
	Workers int

	// ctx, when non-nil, cancels the candidate sweep between subset
	// evaluations (set through ApproMultiContext; a nil ctx disables
	// the per-candidate check entirely).
	ctx context.Context
	// onTrees, when non-nil, sees the solve's shortest-path cache once
	// every tree is built (test instrumentation).
	onTrees func(*spCache)
}

// DefaultOptions returns the evaluation defaults (K = 3).
func DefaultOptions() Options { return Options{K: 3} }

// disableSubsetPruning turns the candidate lower-bound pruning and the
// dominated-subset skip off — test instrumentation for asserting pruned
// and exhaustive sweeps return byte-identical solutions.
var disableSubsetPruning bool

// ApproMulti implements Algorithm 1 (Appro_Multi) and its capacitated
// variant (Appro_Multi_Cap): it returns a minimum-cost pseudo-multicast
// tree over all server subsets of size at most K, with approximation
// ratio 2K. The returned solution is not yet allocated; use
// AllocationFor + Network.Allocate to commit it.
func ApproMulti(nw *sdn.Network, req *multicast.Request, opts Options) (*Solution, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("core: invalid K=%d (need K >= 1)", opts.K)
	}
	if err := validateInput(nw, req); err != nil {
		return nil, err
	}
	weight := func(e graph.EdgeID) float64 { return nw.LinkUnitCost(e) * req.BandwidthMbps }
	// The view re-prices the network's own graph and builds its trees
	// from the seeds the last solve on nw left there.
	w := buildWorkGraph(nw.Graph(), nw, req, opts.Capacitated, weight)
	if len(w.servers) == 0 {
		return nil, ErrNoFeasibleServer
	}

	// One Dijkstra workspace (heap arena and reuse scratch) serves
	// every per-request shortest-path tree; the trees themselves own
	// their arrays, and the cache builds a root shared by the source,
	// the servers and the destinations once.
	var ws graph.DijkstraWorkspace
	spc := newSPCache(w.g)
	spSrc, err := spc.fromWith(req.Source, &ws)
	if err != nil {
		return nil, err
	}
	var reachSrv []graph.NodeID
	for _, v := range w.servers {
		if spSrc.Reachable(v) {
			reachSrv = append(reachSrv, v)
		}
	}
	if len(reachSrv) == 0 {
		return nil, fmt.Errorf("%w: no server reachable from source %d", ErrUnreachable, req.Source)
	}
	for _, d := range req.Destinations {
		if !spSrc.Reachable(d) {
			return nil, fmt.Errorf("%w: destination %d", ErrUnreachable, d)
		}
	}

	demand := req.ComputeDemandMHz()
	omega := make(map[graph.NodeID]float64, len(reachSrv))
	spSrv := make(map[graph.NodeID]*graph.ShortestPaths, len(reachSrv))
	for _, v := range reachSrv {
		omega[v] = spSrc.Dist[v] + nw.ServerUnitCost(v)*demand
		if spSrv[v], err = spc.fromWith(v, &ws); err != nil {
			return nil, err
		}
	}

	// Evaluate every candidate by the implementation cost of its
	// decomposed pseudo-multicast tree. The auxiliary Steiner tree
	// cost c(T_k^i) (which the 2K analysis bounds) prices each
	// source-to-server path separately, but the realised routing
	// shares common prefixes of those paths, so the implementation
	// cost is the faithful objective from the problem statement
	// (§III.C: minimise the implementation cost). SelectionCost keeps
	// the winning subset's auxiliary value for the theory-facing
	// bound.
	ev, err := newClosureEvaluator(w, req, spSrv, spc, &ws)
	if err != nil {
		return nil, err
	}
	if opts.onTrees != nil {
		opts.onTrees(spc)
	}
	best, err := evaluateCandidates(
		nw, w, req, spSrc, omega, ev, opts, collectCandidates(reachSrv, opts.K))
	if err != nil {
		return nil, err
	}
	if best.tree == nil {
		return nil, ErrUnreachable
	}
	return &Solution{
		Request:         req,
		Tree:            best.tree,
		Servers:         best.tree.Servers,
		OperationalCost: best.op,
		SelectionCost:   best.aux,
	}, nil
}

// candidate is one point of Appro_Multi's search space: a server
// subset evaluated through the virtual-source construction, or a
// single server evaluated through the rooted construction (route to
// the server first, then distribute over a KMB tree rooted there).
// Rooted candidates are valid pseudo-multicast trees — taking the
// minimum preserves the 2K bound — and cover the cases where the
// virtual-source closure's ω-offset steers KMB to a worse topology.
type candidate struct {
	servers []graph.NodeID
	rooted  bool
}

// collectCandidates materialises the candidate stream in its
// deterministic evaluation order: every subset of size <= k in
// forEachSubset order (sizes ascending, lexicographic within a size),
// then one rooted candidate per reachable server. The index in the
// returned slice is the tie-break between equal-cost candidates, so
// this order is load-bearing for reproducibility. All server lists are
// windows of one flat array.
func collectCandidates(reachSrv []graph.NodeID, k int) []candidate {
	n := len(reachSrv)
	members := n
	for size := 1; size <= k && size <= n; size++ {
		members += size * binomial(n, size)
	}
	flat := make([]graph.NodeID, 0, members)
	cands := make([]candidate, 0, countSubsets(n, k)+n)
	add := func(servers []graph.NodeID, rooted bool) {
		start := len(flat)
		flat = append(flat, servers...)
		cands = append(cands, candidate{servers: flat[start:len(flat):len(flat)], rooted: rooted})
	}
	forEachSubset(reachSrv, k, func(subset []graph.NodeID) bool {
		add(subset, false)
		return true
	})
	for i := range reachSrv {
		add(reachSrv[i:i+1], true)
	}
	return cands
}

// bestCandidate is one reduction slot of the candidate evaluation: the
// cheapest tree seen so far plus the enumeration index it came from.
type bestCandidate struct {
	op, aux float64
	tree    *multicast.PseudoTree
	idx     int
}

// evaluateCandidates scores every candidate and reduces them to the
// minimum-implementation-cost tree.
//
// Concurrency model: each worker owns a strided share of the candidate
// indices (idx ≡ worker mod W) and a private bestCandidate slot, so
// cheap size-1 subsets and expensive size-K subsets interleave evenly
// across workers and no candidate is ever touched by two goroutines.
// All shared inputs — the network, the work graph, the precomputed
// Dijkstra trees and the closure evaluator — are read-only after
// construction (see the closureEvaluator and sdn.Network docs), so
// workers need no locking. The final merge picks the lowest
// (implementation cost, enumeration index) pair; because a sequential
// scan keeps the first strict improvement, that rule reproduces the
// Workers=1 result exactly, making parallel runs byte-identical to
// sequential ones.
func evaluateCandidates(
	nw *sdn.Network,
	w *workGraph,
	req *multicast.Request,
	spSrc *graph.ShortestPaths,
	omega map[graph.NodeID]float64,
	ev *closureEvaluator,
	opts Options,
	cands []candidate,
) (best bestCandidate, err error) {
	workers := parallel.Degree(opts.Workers)
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers < 1 {
		workers = 1
	}
	locals := make([]bestCandidate, workers)
	// Per-worker scratch arenas: candidate evaluation reuses one
	// allocation set (and one Steiner sweep over D_k) per goroutine
	// instead of rebuilding closures and adjacency maps for each of the
	// O(|V_S|^K) candidates.
	scratches := make([]evalScratch, workers)
	for i := range locals {
		locals[i] = bestCandidate{op: graph.Infinity, idx: -1}
	}
	demand := req.ComputeDemandMHz()
	eval := func(idx int, local *bestCandidate, s *evalScratch) {
		c := cands[idx]
		// Branch-and-bound: an admissible lower bound on any tree this
		// candidate can realise, priced directly in operational terms
		// (the work graph's weights ARE unit cost × bandwidth). The
		// realised tree contains a source→server path for some v ∈ S
		// (≥ the cheapest), uses at least one server of S (≥ the
		// cheapest placement), and reaches every destination from some
		// v ∈ S over processed edges (≥ the worst destination's best
		// connection). A pruned candidate therefore satisfies
		// op >= lb >= local.op and would lose the strict `op < local.op`
		// comparison below — the surviving tree, cost and enumeration
		// index are byte-identical with pruning on or off.
		if local.tree != nil && !disableSubsetPruning {
			minSrc, minUnit := graph.Infinity, graph.Infinity
			for _, v := range c.servers {
				if d := spSrc.Dist[v]; d < minSrc {
					minSrc = d
				}
				if u := nw.ServerUnitCost(v); u < minUnit {
					minUnit = u
				}
			}
			sub := ev.resolve(c.servers, nil, s)
			var procLB float64
			for _, d := range req.Destinations {
				best := graph.Infinity
				for i := range sub {
					if dd := sub[i].sp.Dist[d]; dd < best {
						best = dd
					}
				}
				if best > procLB {
					procLB = best
				}
			}
			if lb := minSrc + demand*minUnit + procLB; lb >= local.op {
				return
			}
		}
		var (
			servers   []graph.NodeID
			realEdges []graph.EdgeID
			auxCost   float64
			cerr      error
		)
		switch {
		case c.rooted:
			var treeCost float64
			realEdges, treeCost, cerr = ev.steinerRooted(c.servers[0], s)
			servers, auxCost = c.servers, omega[c.servers[0]]+treeCost
		case opts.ExplicitAuxiliary:
			servers, realEdges, auxCost, cerr = buildSubsetTreeExplicitCost(w, req, c.servers, omega)
		default:
			servers, realEdges, auxCost, cerr = ev.steiner(c.servers, omega, s)
		}
		if cerr != nil {
			// Infeasible (e.g. a destination unreachable through it) or
			// dominated: the latter's tree is that of an earlier
			// candidate.
			return
		}
		// Price on scratch; realise only what beats the incumbent. A
		// candidate priced at or above it loses the strict < below just
		// as its built tree would.
		tree, op := realiseBelow(nw, w, req, spSrc, servers, realEdges, s, local.op)
		if tree == nil {
			return
		}
		// op < local.op: strict < plus increasing idx per worker keeps
		// the lowest-index minimum in each slot.
		*local = bestCandidate{op: op, aux: auxCost, tree: tree, idx: idx}
	}
	// eval never fails (infeasible candidates are skipped); the only
	// errors out of the pool are cancellation between candidates and a
	// sweep refusing D_k.
	perr := parallel.ForEachIndex(workers, workers, func(wi int) error {
		if err := ev.prepare(&scratches[wi]); err != nil {
			return err
		}
		for idx := wi; idx < len(cands); idx += workers {
			if opts.ctx != nil {
				if cerr := opts.ctx.Err(); cerr != nil {
					return canceled(cerr)
				}
			}
			eval(idx, &locals[wi], &scratches[wi])
		}
		return nil
	})
	if perr != nil {
		return bestCandidate{}, perr
	}
	best = bestCandidate{op: graph.Infinity, idx: -1}
	for i := range locals {
		lb := locals[i]
		if lb.tree == nil {
			continue
		}
		if lb.op < best.op || (lb.op == best.op && lb.idx < best.idx) {
			best = lb
		}
	}
	return best, nil
}

// treeLoads lists the links of the pseudo-multicast tree decompose
// would build from (servers, realEdges), without building it: links in
// ascending edge-ID order, each with its number of directed traversals.
// The unprocessed stream is the union of the source's
// shortest paths to the servers, one traversal per edge (the paths lie
// in one shortest-path tree, so a walk towards the source stops at the
// first edge an earlier walk took); the processed stream crosses every
// real edge once. ok is false when a server is cut off from the source.
// The result is scratch-backed.
func treeLoads(
	w *workGraph,
	spSrc *graph.ShortestPaths,
	servers []graph.NodeID,
	realEdges []graph.EdgeID,
	s *evalScratch,
) (loads []edgeLoad, ok bool) {
	s.ensure(w.g.NumNodes(), w.g.NumEdges())
	gen := s.nextGen()
	s.crossings = s.crossings[:0]
	stamp := func(e graph.EdgeID) bool {
		if s.edgeGen[e] == gen {
			return false
		}
		s.edgeGen[e] = gen
		s.crossings = append(s.crossings, e)
		return true
	}
	for _, v := range servers {
		if !spSrc.VisitPathEdges(v, stamp) {
			return nil, false
		}
	}
	s.crossings = append(s.crossings, realEdges...)
	sort.Ints(s.crossings)
	s.loads = s.loads[:0]
	for _, e := range s.crossings {
		if n := len(s.loads); n > 0 && s.loads[n-1].edge == e {
			s.loads[n-1].load++
		} else {
			s.loads = append(s.loads, edgeLoad{edge: e, load: 1})
		}
	}
	return s.loads, true
}

// operationalPrice is OperationalCost of the tree decompose would build
// from (servers, realEdges), summed over treeLoads' multiset in the
// same order — links ascending, then servers — so the two agree to the
// last bit.
func operationalPrice(
	nw *sdn.Network, req *multicast.Request, loads []edgeLoad, servers []graph.NodeID,
) float64 {
	var cost float64
	for _, l := range loads {
		cost += float64(l.load) * req.BandwidthMbps * nw.LinkUnitCost(l.edge)
	}
	demand := req.ComputeDemandMHz()
	for _, v := range servers {
		cost += demand * nw.ServerUnitCost(v)
	}
	return cost
}

// realiseBelow builds the pseudo-multicast tree of (servers, realEdges)
// and returns it with its operational cost — but only when that cost is
// strictly below limit, which it finds out by pricing on scratch first.
// It returns nil for a candidate at or above the limit and for one
// decompose rejects.
func realiseBelow(
	nw *sdn.Network,
	w *workGraph,
	req *multicast.Request,
	spSrc *graph.ShortestPaths,
	servers []graph.NodeID,
	realEdges []graph.EdgeID,
	s *evalScratch,
	limit float64,
) (*multicast.PseudoTree, float64) {
	loads, ok := treeLoads(w, spSrc, servers, realEdges, s)
	if !ok || operationalPrice(nw, req, loads, servers) >= limit {
		return nil, 0
	}
	tree, err := decompose(w, req, spSrc, servers, realEdges, s)
	if err != nil {
		return nil, 0
	}
	op := OperationalCost(nw, req, tree)
	if op >= limit {
		return nil, 0
	}
	return tree, op
}

// decompose converts an auxiliary Steiner tree — given as the used
// virtual servers plus the surviving real edges — into a
// pseudo-multicast tree: one unprocessed shortest path from the source
// to each used server, and the processed distribution component rooted
// at each server (paper §III.B's G_T construction). s supplies the
// adjacency/visited scratch (stamp-invalidated per call).
func decompose(
	w *workGraph,
	req *multicast.Request,
	spSrc *graph.ShortestPaths,
	servers []graph.NodeID,
	realEdges []graph.EdgeID,
	s *evalScratch,
) (*multicast.PseudoTree, error) {
	tree := multicast.NewPseudoTree(req.Source, req.Destinations, servers)

	// Unprocessed stream: source to every used server.
	for _, v := range servers {
		nodes, edges, ok := spSrc.PathTo(v)
		if !ok {
			return nil, fmt.Errorf("%w: server %d", ErrUnreachable, v)
		}
		if err := tree.AddPath(nodes, edges, false); err != nil {
			return nil, err
		}
	}

	// Processed stream: orient each server's component of the real
	// edge forest away from the server. Removing the virtual source
	// splits the auxiliary tree into one component per used server.
	s.ensure(w.g.NumNodes(), w.g.NumEdges())
	gen := s.nextGen()
	adjAt := func(v graph.NodeID) []graph.Neighbor {
		if s.adjGen[v] != gen {
			return nil
		}
		return s.adj[v]
	}
	for _, le := range realEdges {
		e := w.g.Edge(le)
		for _, v := range [2]graph.NodeID{e.U, e.V} {
			if s.adjGen[v] != gen {
				s.adjGen[v] = gen
				s.adj[v] = s.adj[v][:0]
			}
		}
		s.adj[e.U] = append(s.adj[e.U], graph.Neighbor{Node: e.V, EdgeID: le})
		s.adj[e.V] = append(s.adj[e.V], graph.Neighbor{Node: e.U, EdgeID: le})
	}
	visited := func(v graph.NodeID) bool { return s.visGen[v] == gen }
	visit := func(v graph.NodeID) { s.visGen[v] = gen }
	s.stack = s.stack[:0]
	for _, v := range servers {
		if visited(v) {
			return nil, fmt.Errorf("core: internal: servers %v share a tree component", servers)
		}
		visit(v)
		s.stack = append(s.stack, v)
		for len(s.stack) > 0 {
			u := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			for _, nb := range adjAt(u) {
				if visited(nb.Node) {
					continue
				}
				visit(nb.Node)
				tree.AddHop(multicast.Hop{
					From: u, To: nb.Node, Edge: nb.EdgeID, Processed: true,
				})
				s.stack = append(s.stack, nb.Node)
			}
		}
	}
	for _, d := range req.Destinations {
		if !visited(d) {
			return nil, fmt.Errorf("core: internal: destination %d outside every server component", d)
		}
	}
	return tree, nil
}
