package core

import (
	"fmt"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// AlgOneServer implements the evaluation baseline of Zhang et al.
// ([22] in the paper): the service chain runs on exactly one server.
// For every candidate server v it routes the traffic from the source
// to v over a shortest path and builds a multicast tree from v to the
// destinations by expanding the MST of the destination metric closure
// (the KMB construction over terminals {v} ∪ D_k), keeping the
// cheapest (server, tree) combination. It never uses more than one
// server and never lets the tree structure influence the
// source-to-server route — the joint optimisation Appro_Multi adds.
func AlgOneServer(nw *sdn.Network, req *multicast.Request, capacitated bool) (*Solution, error) {
	if err := validateInput(nw, req); err != nil {
		return nil, err
	}
	w := buildWorkGraph(nw.Graph(), nw, req, capacitated, func(e graph.EdgeID) float64 {
		return nw.LinkUnitCost(e) * req.BandwidthMbps
	})
	if len(w.servers) == 0 {
		return nil, ErrNoFeasibleServer
	}
	spSrc, err := graph.Dijkstra(w.g, req.Source)
	if err != nil {
		return nil, err
	}
	spSrv := make(map[graph.NodeID]*graph.ShortestPaths)
	var reachSrv []graph.NodeID
	for _, v := range w.servers {
		if !spSrc.Reachable(v) {
			continue
		}
		sp, derr := graph.Dijkstra(w.g, v)
		if derr != nil {
			return nil, derr
		}
		spSrv[v] = sp
		reachSrv = append(reachSrv, v)
	}
	if len(reachSrv) == 0 {
		return nil, fmt.Errorf("%w: no server reachable from source %d", ErrUnreachable, req.Source)
	}
	ev, err := newClosureEvaluator(w, req, spSrv, nil, nil)
	if err != nil {
		return nil, err
	}

	demand := req.ComputeDemandMHz()
	var (
		bestCost = graph.Infinity
		bestSel  float64
		bestTree *multicast.PseudoTree
		scratch  evalScratch
	)
	if err := ev.prepare(&scratch); err != nil {
		return nil, err
	}
	for i, v := range reachSrv {
		realEdges, treeCost, rerr := ev.steinerRooted(v, &scratch)
		if rerr != nil {
			continue
		}
		tree, cost := realiseBelow(nw, w, req, spSrc, reachSrv[i:i+1], realEdges, &scratch, bestCost)
		if tree == nil {
			continue
		}
		bestCost, bestTree = cost, tree
		bestSel = spSrc.Dist[v] + nw.ServerUnitCost(v)*demand + treeCost
	}
	if bestTree == nil {
		return nil, fmt.Errorf("%w: no server can reach source and all destinations",
			ErrUnreachable)
	}
	return &Solution{
		Request:         req,
		Tree:            bestTree,
		Servers:         bestTree.Servers,
		OperationalCost: bestCost,
		SelectionCost:   bestSel,
	}, nil
}

// AlgOneServerNearest is the literal two-stage reading of the [22]
// baseline ("first routes the traffic of r_k to a server, and then
// finds an MST..."): stage one commits to the server with the
// cheapest source route, ignoring both its computing price and the
// destinations; stage two builds the KMB tree from that server. It is
// strictly weaker than AlgOneServer and shows what the joint
// computing/bandwidth trade-off of Appro_Multi buys.
func AlgOneServerNearest(nw *sdn.Network, req *multicast.Request, capacitated bool) (*Solution, error) {
	if err := validateInput(nw, req); err != nil {
		return nil, err
	}
	w := buildWorkGraph(nw.Graph(), nw, req, capacitated, func(e graph.EdgeID) float64 {
		return nw.LinkUnitCost(e) * req.BandwidthMbps
	})
	if len(w.servers) == 0 {
		return nil, ErrNoFeasibleServer
	}
	spSrc, err := graph.Dijkstra(w.g, req.Source)
	if err != nil {
		return nil, err
	}
	nearest, nearestDist := graph.NodeID(-1), graph.Infinity
	for _, v := range w.servers {
		if d := spSrc.Dist[v]; d < nearestDist {
			nearest, nearestDist = v, d
		}
	}
	if nearest == -1 {
		return nil, fmt.Errorf("%w: no server reachable from source %d", ErrUnreachable, req.Source)
	}
	spV, err := graph.Dijkstra(w.g, nearest)
	if err != nil {
		return nil, err
	}
	ev, err := newClosureEvaluator(w, req, map[graph.NodeID]*graph.ShortestPaths{nearest: spV}, nil, nil)
	if err != nil {
		return nil, err
	}
	var scratch evalScratch
	if err := ev.prepare(&scratch); err != nil {
		return nil, err
	}
	realEdges, treeCost, err := ev.steinerRooted(nearest, &scratch)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	tree, err := decompose(w, req, spSrc, []graph.NodeID{nearest}, realEdges, &scratch)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Request:         req,
		Tree:            tree,
		Servers:         tree.Servers,
		OperationalCost: OperationalCost(nw, req, tree),
		SelectionCost:   nearestDist + nw.ServerUnitCost(nearest)*req.ComputeDemandMHz() + treeCost,
	}, nil
}
