package sim

import (
	"fmt"
	"math/rand"

	"nfvmcast/internal/core"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/nfv"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// ExtOptGap is an extension experiment beyond the paper: the measured
// optimality gap of the approximations on instances small enough for
// exact solutions. Per destination-count point it reports the average
// and worst ratio of the KMB Steiner tree to the exact Dreyfus–Wagner
// optimum (theory bound: 2(1−1/ℓ)), plus Appro_Multi's implementation
// cost against the exact optimal auxiliary tree over all server
// subsets (theory bound: 2, feeding the paper's 2K result).
func ExtOptGap(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	const (
		netSize = 18
		servers = 3
		k       = 2
	)
	destCounts := []int{2, 3, 4, 5}
	points, err := grid(len(destCounts), 1, allCores, func(di, _ int) ([]float64, error) {
		nd := destCounts[di]
		rng := rand.New(rand.NewSource(cfg.Seed + int64(nd)))
		var (
			kmbSum, kmbWorst float64
			amSum, amWorst   float64
			samples          int
		)
		for i := 0; i < cfg.Requests; i++ {
			topo, err := topology.WaxmanDegree(netSize, 3, 0.2, cfg.Seed+int64(1000*nd+i))
			if err != nil {
				return nil, err
			}
			topo.Servers = servers
			nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rng)
			if err != nil {
				return nil, err
			}
			perm := rng.Perm(netSize)
			dests := make([]graph.NodeID, nd)
			copy(dests, perm[1:1+nd])
			chain, err := nfv.RandomChain(rng, 1, 3)
			if err != nil {
				return nil, err
			}
			req := &multicast.Request{
				ID: 1, Source: perm[0], Destinations: dests,
				BandwidthMbps: 50 + rng.Float64()*150, Chain: chain,
			}

			// KMB vs exact on the plain Steiner instance
			// (terminals: source + destinations, cost-weighted).
			wg := nw.Graph().Clone()
			for e := 0; e < wg.NumEdges(); e++ {
				if err := wg.SetWeight(e, nw.LinkUnitCost(e)*req.BandwidthMbps); err != nil {
					return nil, err
				}
			}
			terminals := append([]graph.NodeID{req.Source}, dests...)
			exact, err := graph.SteinerExact(wg, terminals)
			if err != nil || exact.Weight <= 0 {
				continue
			}
			kmb, err := graph.SteinerKMB(wg, terminals)
			if err != nil {
				continue
			}
			r := kmb.Weight / exact.Weight
			kmbSum += r
			kmbWorst = max(kmbWorst, r)

			// Appro_Multi vs the exact auxiliary optimum.
			optAux, ok := exactAuxOptimum(nw, req, k)
			if !ok || optAux <= 0 {
				continue
			}
			sol, err := solveOffline("Appro_Multi", nw, req, core.Options{K: k, Workers: cfg.Workers})
			if err != nil {
				continue
			}
			ra := sol.OperationalCost / optAux
			amSum += ra
			amWorst = max(amWorst, ra)
			samples++
		}
		if samples == 0 {
			return nil, fmt.Errorf("sim: optgap point nd=%d collected no samples", nd)
		}
		return []float64{kmbSum / float64(samples), kmbWorst, amSum / float64(samples), amWorst}, nil
	})
	if err != nil {
		return nil, err
	}
	return []Figure{{
		ID: "ExtOptGap",
		Title: fmt.Sprintf(
			"measured optimality gaps on exact-solvable instances (n = %d, %d per point)",
			netSize, cfg.Requests),
		XLabel: "destinations",
		X:      floats(destCounts),
		YLabel: "ratio to exact optimum",
		Series: columns([]string{"KMB avg", "KMB worst", "Appro_Multi avg", "Appro_Multi worst"}, points[0]),
	}}, nil
}

// exactAuxOptimum computes the minimum exact auxiliary tree weight
// over all server subsets of size <= k (the quantity Theorem 1 bounds
// by K times the optimal pseudo-multicast tree).
func exactAuxOptimum(nw *sdn.Network, req *multicast.Request, k int) (float64, bool) {
	hg := nw.Graph()
	wg := hg.Clone()
	for e := 0; e < wg.NumEdges(); e++ {
		if err := wg.SetWeight(e, nw.LinkUnitCost(e)*req.BandwidthMbps); err != nil {
			return 0, false
		}
	}
	spSrc, err := graph.Dijkstra(wg, req.Source)
	if err != nil {
		return 0, false
	}
	demand := req.ComputeDemandMHz()
	var servers []graph.NodeID
	omega := make(map[graph.NodeID]float64)
	for _, v := range nw.Servers() {
		if spSrc.Reachable(v) {
			servers = append(servers, v)
			omega[v] = spSrc.Dist[v] + nw.ServerUnitCost(v)*demand
		}
	}
	if len(servers) == 0 {
		return 0, false
	}
	best := graph.Infinity
	found := false
	var visit func(start int, subset []graph.NodeID)
	visit = func(start int, subset []graph.NodeID) {
		if len(subset) > 0 {
			aux := wg.Clone()
			virtual := aux.AddNode()
			for _, v := range subset {
				aux.MustAddEdge(virtual, v, omega[v])
			}
			terminals := append([]graph.NodeID{virtual}, req.Destinations...)
			if opt, oerr := graph.SteinerExactWeight(aux, terminals); oerr == nil && opt < best {
				best, found = opt, true
			}
		}
		if len(subset) == k {
			return
		}
		for i := start; i < len(servers); i++ {
			visit(i+1, append(subset, servers[i]))
		}
	}
	visit(0, nil)
	return best, found
}
