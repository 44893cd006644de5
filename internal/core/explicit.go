package core

import (
	"math"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
)

// The explicit variant materialises the paper's auxiliary graph G_k^i
// per server subset: the work graph plus a virtual source s'_k wired
// to every subset server with weight ω(v) = dist(s_k,v) + server cost,
// and — the paper-literal detail — direct edges (s_k, v) for subset
// servers re-weighted to zero (Algorithm 1, step 5). It then runs the
// generic KMB routine. Slower than the closure evaluator; kept for
// cross-validation and the ablation benchmark.

// buildAuxiliary constructs G_k^i for one subset and returns it with
// the virtual source's node ID. Edge IDs [0, m) of the auxiliary graph
// coincide with the work graph's (the network's link IDs); IDs >= m are
// virtual.
func buildAuxiliary(
	w *workGraph, req *multicast.Request, subset []graph.NodeID, omega map[graph.NodeID]float64,
) (aux *graph.Graph, virtualNode graph.NodeID) {
	aux = w.g.Clone()
	virtualNode = aux.AddNode()
	for _, v := range subset {
		aux.MustAddEdge(virtualNode, v, omega[v])
		// Zero-cost rule: a direct source-server link is free in G_k^i
		// because the virtual edge already prices reaching v. A link
		// outside the view (+Inf) stays out.
		if id, ok := aux.EdgeBetween(req.Source, v); ok && !math.IsInf(aux.Weight(id), 1) {
			// SetWeight cannot fail: id is valid and the weight is 0.
			_ = aux.SetWeight(id, 0)
		}
	}
	return aux, virtualNode
}

// splitAuxiliaryTree separates a Steiner tree in G_k^i into the used
// virtual servers and the surviving real edges.
func splitAuxiliaryTree(
	w *workGraph, aux *graph.Graph, virtualNode graph.NodeID, tree *graph.SteinerTree,
) (servers []graph.NodeID, realEdges []graph.EdgeID) {
	realBudget := w.g.NumEdges()
	for _, id := range tree.EdgeIDs {
		if id < realBudget {
			realEdges = append(realEdges, id)
			continue
		}
		e := aux.Edge(id)
		v := e.U
		if v == virtualNode {
			v = e.V
		}
		servers = append(servers, v)
	}
	return servers, realEdges
}

// buildSubsetTreeExplicitCost evaluates one subset with the explicit
// construction, returning the used servers, surviving real edges and
// the auxiliary tree cost.
func buildSubsetTreeExplicitCost(
	w *workGraph, req *multicast.Request, subset []graph.NodeID, omega map[graph.NodeID]float64,
) (servers []graph.NodeID, realEdges []graph.EdgeID, auxCost float64, err error) {
	aux, virtualNode := buildAuxiliary(w, req, subset, omega)
	terminals := append([]graph.NodeID{virtualNode}, req.Destinations...)
	tree, err := graph.SteinerKMB(aux, terminals)
	if err != nil {
		return nil, nil, 0, err
	}
	servers, realEdges = splitAuxiliaryTree(w, aux, virtualNode, tree)
	if len(servers) == 0 {
		return nil, nil, 0, ErrNoFeasibleServer
	}
	return servers, realEdges, tree.Weight, nil
}
