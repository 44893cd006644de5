package shard_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/shard"
	"nfvmcast/internal/topology"
)

// BenchmarkShardThroughput measures end-to-end admission throughput
// (admitted sessions per second over a fixed offered stream) as one
// multi-tenant substrate is split across more shards.
//
// The substrate is fixed across every configuration: benchRegions
// GÉANT replicas ("regions") chained by inter-region links whose
// capacity sits below the smallest request size, so every residual
// work graph prunes the interconnects and planning is region-local —
// per-region tenancy over one operator fleet. Tenants are pinned to
// their region's shard via the router's Assign hook. With S shards
// each engine owns benchRegions/S regions; S=1 is the monolith, one
// engine planning every request against the whole fleet network.
//
// Region substrates use constant capacities and a fixed server
// placement, and each region replays an identical request stream at
// every shard count, so every configuration admits (nearly) the same
// sessions. What changes is the planning bill: the monolith pays per
// request for the whole fleet — residual work-graph construction over
// all regions' links and servers, shortest-path roots for every
// region's candidate servers, and commits that invalidate the
// planner cache fleet-wide — while a shard pays only for its own
// slice. That per-request cost gap, not an admit-count artifact, is
// what the admits/sec scaling reports. The metric feeds the CI
// scaling gate (>= 2.5x at 4 shards vs 1) and results/BENCH_shard.json.
func BenchmarkShardThroughput(b *testing.B) {
	const (
		benchRegions     = 16   // GÉANT replicas in the fleet substrate
		requests         = 6400 // total offered stream (400 per region)
		tenantsPerRegion = 4
		interRegionMbps  = 10 // below min b_k (50): regions stay isolated
	)
	region := topology.GEANT()
	regionNodes := region.Graph.NumNodes()
	// One fixed server placement, replicated per region, so a region's
	// substrate is identical no matter which shard hosts it.
	regionServers := region.PickServers(rand.New(rand.NewSource(7)))

	// Constant capacities (degenerate ranges) for the same reason:
	// range-drawn capacities would depend on a region's edge offset
	// inside its shard's network and differ across shard counts.
	cfg := sdn.Config{
		BandwidthCapRangeMbps: [2]float64{4000, 4000},
		ComputeCapRangeMHz:    [2]float64{8000, 8000},
		LinkUnitCost:          [2]float64{1.0, 1.0},
		ServerUnitCost:        [2]float64{0.3, 0.3},
	}

	// buildShard assembles one shard's network: the union of regions
	// [lo, hi) chained with thin inter-region links.
	buildShard := func(lo, hi int) (*sdn.Network, core.Planner, error) {
		count := hi - lo
		g := graph.New(count * regionNodes)
		for p := 0; p < count; p++ {
			off := graph.NodeID(p * regionNodes)
			for i := 0; i < region.Graph.NumEdges(); i++ {
				e := region.Graph.Edge(graph.EdgeID(i))
				if _, err := g.AddEdge(e.U+off, e.V+off, e.W); err != nil {
					return nil, nil, err
				}
			}
		}
		var chain []graph.EdgeID
		for p := 0; p < count-1; p++ {
			e, err := g.AddEdge(graph.NodeID(p*regionNodes), graph.NodeID((p+1)*regionNodes), 1)
			if err != nil {
				return nil, nil, err
			}
			chain = append(chain, e)
		}
		servers := make([]graph.NodeID, 0, count*len(regionServers))
		for p := 0; p < count; p++ {
			for _, v := range regionServers {
				servers = append(servers, v+graph.NodeID(p*regionNodes))
			}
		}
		topo := &topology.Topology{
			Name:    fmt.Sprintf("geant-regions-%d-%d", lo, hi),
			Graph:   g,
			Servers: len(servers),
		}
		nw, err := sdn.NewNetworkWithServers(topo, cfg, servers, rand.New(rand.NewSource(int64(lo))))
		if err != nil {
			return nil, nil, err
		}
		for _, e := range chain {
			if err := nw.SetBandwidthCap(e, interRegionMbps); err != nil {
				return nil, nil, err
			}
		}
		model := core.DefaultCostModel(nw.NumNodes())
		// σ_e = β^0.4 − 1 marks links overloaded past ~40% utilisation
		// at every network size — the paper's admission-control regime,
		// applied at the same operating point to monolith and shards.
		model.SigmaE = math.Pow(model.Beta, 0.4) - 1
		p, err := core.NewCPPlanner(model)
		return nw, p, err
	}

	// Per-region request streams, identical at every shard count.
	perRegion := requests / benchRegions
	streams := make([][]*multicast.Request, benchRegions)
	for i := range streams {
		gen, err := multicast.NewGenerator(regionNodes, multicast.OnlineGeneratorConfig(), 63+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		streams[i], err = gen.Batch(perRegion)
		if err != nil {
			b.Fatal(err)
		}
	}

	for _, shardCount := range []int{1, 2, 4, 8} {
		regionsPerShard := benchRegions / shardCount
		ids := make([]string, shardCount)
		for s := range ids {
			ids[s] = fmt.Sprintf("s%d", s)
		}
		tenantOf := func(region, j int) string {
			return fmt.Sprintf("region%02d-t%d", region, j%tenantsPerRegion)
		}
		tenantShard := make(map[string]string)
		for i := 0; i < benchRegions; i++ {
			for j := 0; j < tenantsPerRegion; j++ {
				tenantShard[tenantOf(i, j)] = ids[i/regionsPerShard]
			}
		}

		// The offered stream in shard-local coordinates: region i lands
		// at node offset (i mod regions-per-shard)·|region| inside its
		// shard's network. Arrivals interleave round-robin across
		// regions with globally unique ascending IDs.
		type arrival struct {
			tenant string
			req    *multicast.Request
		}
		stream := make([]arrival, 0, perRegion*benchRegions)
		for k := 0; k < perRegion; k++ {
			for i := 0; i < benchRegions; i++ {
				src := streams[i][k]
				off := graph.NodeID((i % regionsPerShard) * regionNodes)
				cp := *src
				cp.ID = len(stream)
				cp.Source = src.Source + off
				cp.Destinations = make([]graph.NodeID, len(src.Destinations))
				for d, v := range src.Destinations {
					cp.Destinations[d] = v + off
				}
				stream = append(stream, arrival{tenant: tenantOf(i, k), req: &cp})
			}
		}

		b.Run(fmt.Sprintf("shards=%d", shardCount), func(b *testing.B) {
			var admitted, offered int
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				b.StopTimer()
				r, err := shard.New(shard.Options{
					Shards: ids,
					Build: func(id string) (*sdn.Network, core.Planner, error) {
						var s int
						if _, serr := fmt.Sscanf(id, "s%d", &s); serr != nil {
							return nil, nil, serr
						}
						return buildShard(s*regionsPerShard, (s+1)*regionsPerShard)
					},
					Assign: func(tenant string) string { return tenantShard[tenant] },
				})
				if err != nil {
					b.Fatal(err)
				}
				// Fresh request IDs per iteration: the router pins
				// sessions by ID.
				reqs := make([]*multicast.Request, len(stream))
				for j, a := range stream {
					cp := *a.req
					cp.ID = it*len(stream) + j
					reqs[j] = &cp
				}
				b.StartTimer()
				// Sequential arrival order, as in the paper's online
				// model: request k is decided before k+1 arrives.
				for j, a := range stream {
					if _, aerr := r.Admit(a.tenant, reqs[j]); aerr == nil {
						admitted++
					}
				}
				b.StopTimer()
				offered += len(stream)
				r.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(admitted)/b.Elapsed().Seconds(), "admits/sec")
			b.ReportMetric(float64(admitted)/float64(b.N), "admitted/run")
			b.ReportMetric(float64(offered)/float64(b.N), "offered/run")
		})
	}
}
