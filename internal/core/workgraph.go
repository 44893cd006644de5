package core

import (
	"math"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// workGraph is the re-weighted view of the network graph an algorithm
// runs on. It keeps every link under its network edge ID; a link
// outside the view is priced at +Inf, which no shortest path, Steiner
// tree or certified tree reuse ever takes (graph's
// TestInfiniteWeightIsAbsent).
//
// Thread safety: a workGraph is immutable after buildWorkGraph
// returns (explicit-auxiliary evaluation clones g before mutating),
// so it may be read from any number of goroutines concurrently.
type workGraph struct {
	g       *graph.Graph
	servers []graph.NodeID // eligible servers in this view
}

// buildWorkGraph constructs the algorithm's working view of nw for req
// on a weight clone of base, which must have nw's adjacency (nw.Graph()
// or a Clone of it); the view shares base's adjacency and seed table
// (graph.SeededTree), so its trees come from the seeds earlier views
// left there. When capacitated is true the view keeps only links with
// residual bandwidth >= b_k and servers with residual computing >=
// C_v(SC_k) (the Appro_Multi_Cap / online residual-network
// construction); otherwise it keeps everything up. weight prices a
// kept link for the algorithm's objective.
//
// The kept links keep their relative adjacency and edge-ID order, so
// heap pops, sorted unions and every tie come out as on a graph built
// from the kept links alone.
func buildWorkGraph(
	base *graph.Graph,
	nw *sdn.Network,
	req *multicast.Request,
	capacitated bool,
	weight func(e graph.EdgeID) float64,
) *workGraph {
	g := base.WeightClone()
	for e := 0; e < g.NumEdges(); e++ {
		price := math.Inf(1)
		if linkMember(nw, req, capacitated, e) {
			price = weight(e)
		}
		if err := g.SetWeight(e, price); err != nil {
			panic(err)
		}
	}
	return &workGraph{g: g, servers: eligibleServers(nw, req, capacitated)}
}

// linkMember reports whether link e belongs to req's view: up, and
// with residual bandwidth >= b_k when capacitated.
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
