package graph_test

import (
	"math/rand"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/topology"
)

// BenchmarkDijkstraWaxman250 is the standing microbenchmark of the
// shortest-path kernel (indexed heap + relaxation loop) on the
// engine-large-parallel substrate: Waxman-250, average degree 4, with
// continuous random weights standing in for a request's marginal link
// prices. Each iteration is one full DijkstraInto from the next root,
// reusing the workspace and the result arrays. Not CI-gated; run with
//
//	go test ./internal/graph/ -run '^$' -bench DijkstraWaxman250 -benchmem
func BenchmarkDijkstraWaxman250(b *testing.B) {
	topo, err := topology.WaxmanDegree(250, topology.DefaultAvgDegree, 0.14, 42)
	if err != nil {
		b.Fatal(err)
	}
	g := topo.Graph.Clone()
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
