package core

import (
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// workGraph is a (possibly filtered) re-weighted view of the network
// graph an algorithm runs on. Its edge IDs are local; toHost maps them
// back to network edge IDs for pricing and allocation.
//
// Thread safety: a workGraph is immutable after buildWorkGraph
// returns (explicit-auxiliary evaluation clones g before mutating),
// so it may be read from any number of goroutines concurrently. That
// is also what lets buildWorkGraphFrom share one graph's adjacency,
// toHost and fromHost among many work graphs.
type workGraph struct {
	g        *graph.Graph
	toHost   []graph.EdgeID
	fromHost []int32        // host edge → local edge, -1 when filtered out
	servers  []graph.NodeID // eligible servers in this view
}

// hostEdge maps a local edge ID back to the network's edge ID.
func (w *workGraph) hostEdge(local graph.EdgeID) graph.EdgeID { return w.toHost[local] }

// buildWorkGraph constructs the algorithm's working view of nw for
// req. When capacitated is true it keeps only links with residual
// bandwidth >= b_k and servers with residual computing >= C_v(SC_k)
// (the Appro_Multi_Cap / online residual-network construction);
// otherwise it keeps everything. weight prices a network edge for the
// algorithm's objective.
func buildWorkGraph(
	nw *sdn.Network,
	req *multicast.Request,
	capacitated bool,
	weight func(host graph.EdgeID) float64,
) *workGraph {
	hg := nw.Graph()
	n := hg.NumNodes()
	g := graph.New(n)
	var toHost []graph.EdgeID
	fromHost := make([]int32, hg.NumEdges())
	for e := 0; e < hg.NumEdges(); e++ {
		fromHost[e] = -1
		if !linkMember(nw, req, capacitated, e) {
			continue
		}
		he := hg.Edge(e)
		fromHost[e] = int32(g.MustAddEdge(he.U, he.V, weight(e)))
		toHost = append(toHost, e)
	}
	return &workGraph{g: g, toHost: toHost, fromHost: fromHost, servers: eligibleServers(nw, req, capacitated)}
}

// buildWorkGraphFrom is buildWorkGraph for a request whose view has the
// same shape as tmpl's, a work graph built earlier over the same
// network structure: when req keeps exactly tmpl's links, the result
// re-prices every edge on a WeightClone of tmpl.g and shares tmpl's
// adjacency, toHost, fromHost and the adjacency's seed table
// (graph.SeededTree) instead of re-inserting every edge.
// It returns nil — build cold instead — when the membership differs.
//
// The result is identical to buildWorkGraph's: the same kept links in
// host-edge order give the same local IDs and the same adjacency order
// (buildWorkGraph inserts edges in host order), and every weight comes
// from the same formula over the same residuals.
func buildWorkGraphFrom(
	tmpl *workGraph,
	nw *sdn.Network,
	req *multicast.Request,
	capacitated bool,
	weight func(host graph.EdgeID) float64,
) *workGraph {
	m := nw.NumEdges()
	if tmpl.g.NumNodes() != nw.NumNodes() || len(tmpl.fromHost) != m {
		return nil
	}
	for e := 0; e < m; e++ {
		if linkMember(nw, req, capacitated, e) != (tmpl.fromHost[e] >= 0) {
			return nil
		}
	}
	g := tmpl.g.WeightClone()
	for local, e := range tmpl.toHost {
		if g.SetWeight(local, weight(e)) != nil {
			return nil // a negative price: let the cold build report it
		}
	}
	return &workGraph{g: g, toHost: tmpl.toHost, fromHost: tmpl.fromHost, servers: eligibleServers(nw, req, capacitated)}
}

// hostWorkGraph is buildWorkGraph for a view that keeps every link of
// nw, and nil for any other: it is buildWorkGraphFrom on the network's
// own graph, whose local IDs are the host IDs. The work graph shares
// nw.Graph()'s adjacency and seed table, so its trees seed the next
// solve on nw, and they die with that graph.
func hostWorkGraph(
	nw *sdn.Network,
	req *multicast.Request,
	capacitated bool,
	weight func(host graph.EdgeID) float64,
) *workGraph {
	m := nw.NumEdges()
	toHost, fromHost := make([]graph.EdgeID, m), make([]int32, m)
	for e := range toHost {
		toHost[e], fromHost[e] = e, int32(e)
	}
	host := &workGraph{g: nw.Graph(), toHost: toHost, fromHost: fromHost}
	return buildWorkGraphFrom(host, nw, req, capacitated, weight)
}

// linkMember reports whether host link e belongs to req's view: up,
// and with residual bandwidth >= b_k when capacitated.
func linkMember(nw *sdn.Network, req *multicast.Request, capacitated bool, e graph.EdgeID) bool {
	return nw.LinkUp(e) && (!capacitated || nw.ResidualBandwidth(e) >= req.BandwidthMbps)
}

// eligibleServers lists the servers that may host req's chain: up, and
// with residual computing >= C_v(SC_k) when capacitated.
func eligibleServers(nw *sdn.Network, req *multicast.Request, capacitated bool) []graph.NodeID {
	demand := req.ComputeDemandMHz()
	all := nw.Servers() // a fresh copy: filter it in place
	servers := all[:0]
	for _, v := range all {
		if !nw.ServerUp(v) {
			continue // failed servers cannot host new VMs
		}
		if capacitated && nw.ResidualCompute(v) < demand {
			continue
		}
		servers = append(servers, v)
	}
	return servers
}

// hostPath converts a local (nodes, edges) path to host edge IDs.
func (w *workGraph) hostPath(edges []graph.EdgeID) []graph.EdgeID {
	out := make([]graph.EdgeID, len(edges))
	for i, e := range edges {
		out[i] = w.toHost[e]
	}
	return out
}

// addHostPath appends a directed walk (local IDs) to a pseudo tree,
// translating edges to host IDs.
func (w *workGraph) addHostPath(
	t *multicast.PseudoTree, nodes []graph.NodeID, edges []graph.EdgeID, processed bool,
) error {
	return t.AddPath(nodes, w.hostPath(edges), processed)
}
