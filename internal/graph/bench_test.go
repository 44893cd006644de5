package graph_test

import (
	"math"
	"math/rand"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/topology"
)

// waxman250 is the engine-large-parallel substrate: Waxman-250 with
// average degree 4.
func waxman250(b *testing.B) *graph.Graph {
	topo, err := topology.WaxmanDegree(250, topology.DefaultAvgDegree, 0.14, 42)
	if err != nil {
		b.Fatal(err)
	}
	return topo.Graph.Clone()
}

// BenchmarkDijkstraWaxman250 is the standing microbenchmark of the
// shortest-path kernel (indexed heap + relaxation loop) on the
// engine-large-parallel substrate: Waxman-250, average degree 4, with
// continuous random weights standing in for a request's marginal link
// prices. Each iteration is one full DijkstraInto from the next root,
// reusing the workspace and the result arrays. Not CI-gated; run with
//
//	go test ./internal/graph/ -run '^$' -bench DijkstraWaxman250 -benchmem
func BenchmarkDijkstraWaxman250(b *testing.B) {
	g := waxman250(b)
	rng := rand.New(rand.NewSource(42))
	for e := 0; e < g.NumEdges(); e++ {
		if err := g.SetWeight(e, rng.ExpFloat64()); err != nil {
			b.Fatal(err)
		}
	}
	var ws graph.DijkstraWorkspace
	var sp graph.ShortestPaths
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.DijkstraInto(g, i%g.NumNodes(), &sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReuseWaxman250 is BenchmarkDijkstraWaxman250's substrate
// priced the way the online planners price it, β^(utilisation after
// b) − 1 with β = 2|V|, for two request bandwidths: each iteration
// reuses the next root's tree built at 40 Mbps to build the tree at
// 60 Mbps with ReuseInto, falling back to DijkstraInto when the reuse
// does not certify, as the planners do. Not CI-gated; compare with
//
//	go test ./internal/graph/ -run '^$' -bench 'Waxman250' -benchmem
func BenchmarkReuseWaxman250(b *testing.B) {
	g := waxman250(b)
	prev := g.WeightClone()
	rng := rand.New(rand.NewSource(42))
	beta := 2 * float64(g.NumNodes())
	for e := 0; e < g.NumEdges(); e++ {
		capMbps := 1000.0
		free := capMbps * (0.2 + 0.8*rng.Float64())
		price := func(bw float64) float64 { return math.Pow(beta, 1-(free-bw)/capMbps) - 1 }
		if prev.SetWeight(e, price(40)) != nil || g.SetWeight(e, price(60)) != nil {
			b.Fatal("negative price")
		}
	}
	var ws graph.DijkstraWorkspace
	olds := make([]graph.ShortestPaths, g.NumNodes())
	for v := range olds {
		if err := ws.DijkstraInto(prev, v, &olds[v]); err != nil {
			b.Fatal(err)
		}
	}
	var sp graph.ShortestPaths
	reused := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := ws.ReuseInto(g, &olds[i%len(olds)], &sp)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			reused++
		} else if err := ws.DijkstraInto(g, i%len(olds), &sp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reused)/float64(b.N), "reused/op")
}
