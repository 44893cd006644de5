package graph_test

import (
	"math"
	"math/rand"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/topology"
)

// waxman is the benchmark workloads' n-node substrate with average
// degree 4: Waxman-250 is engine-large-parallel's, Waxman-150
// offline-appromulti's.
func waxman(b *testing.B, n int) *graph.Graph {
	topo, err := topology.WaxmanDegree(n, topology.DefaultAvgDegree, 0.14, 42)
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
	g := waxman(b, 250)
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
// does not certify, as the planners do. Every tree certifies here
// (reused/op reads 1), so the loop times the certified path: the
// re-pricing passes over the nodes, the one pass over the edge array
// and the settle of a few relabelled nodes. Not CI-gated; compare with
//
//	go test ./internal/graph/ -run '^$' -bench 'Waxman250' -benchmem
func BenchmarkReuseWaxman250(b *testing.B) {
	g := waxman(b, 250)
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

// BenchmarkReuseAbandonWaxman100 is the reuse kernel's abandonment in
// engine-loaded's shape: Waxman-100 priced β^(utilisation after b) − 1
// as in BenchmarkReuseWaxman250, with the old trees built before live
// sessions moved the load on a random 15% of the links. More than a
// quarter of the nodes relabel from every root, so each iteration is
// one abandoned ReuseInto plus the DijkstraInto fallback. The prices
// are continuous, so every refusal is an abandonment; abandoned/op
// should read 1. Not CI-gated; run with
//
//	go test ./internal/graph/ -run '^$' -bench 'ReuseAbandon' -benchmem
func BenchmarkReuseAbandonWaxman100(b *testing.B) {
	g := waxman(b, 100)
	prev := g.WeightClone()
	rng := rand.New(rand.NewSource(42))
	beta := 2 * float64(g.NumNodes())
	price := func(free float64) float64 { return math.Pow(beta, 1-(free-60)/1000) - 1 }
	for e := 0; e < g.NumEdges(); e++ {
		was := 1000 * (0.2 + 0.8*rng.Float64())
		now := was
		if rng.Float64() < 0.15 {
			now = 1000 * (0.2 + 0.8*rng.Float64())
		}
		if prev.SetWeight(e, price(was)) != nil || g.SetWeight(e, price(now)) != nil {
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
	abandoned := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := ws.ReuseInto(g, &olds[i%len(olds)], &sp)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			abandoned++
			if err := ws.DijkstraInto(g, i%len(olds), &sp); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(abandoned)/float64(b.N), "abandoned/op")
}

// BenchmarkSweepRowWaxman150 is the standing microbenchmark of the
// Steiner sweep's row kernel in Appro_Multi's shape on the
// offline-appromulti substrate: one BeginSweep over a request's 30
// destinations (DestRatio 0.2 of 150 nodes), then each iteration
// prices the next subset row of up to three of 15 servers, every
// destination entering at its cheapest server under ω, a stand-in for
// the source distance plus the server's processing price. The first
// (full) call and M_F's build run before the timer, so the loop is the
// reduced path plus its tie fallbacks; 0 allocs/op is expected. Not
// CI-gated; run with
//
//	go test ./internal/graph/ -run '^$' -bench SweepRowWaxman150 -benchmem
func BenchmarkSweepRowWaxman150(b *testing.B) {
	g := waxman(b, 150)
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(g.NumNodes())
	src, dests, servers := perm[0], perm[1:31], perm[31:46]
	tree := func(v graph.NodeID) *graph.ShortestPaths {
		sp, err := graph.Dijkstra(g, v)
		if err != nil {
			b.Fatal(err)
		}
		return sp
	}
	spSrc := tree(src)
	destSPs := make([]*graph.ShortestPaths, len(dests))
	for j, d := range dests {
		destSPs[j] = tree(d)
	}
	srvSPs := make([]*graph.ShortestPaths, len(servers))
	omega := make([]float64, len(servers))
	for i, v := range servers {
		srvSPs[i] = tree(v)
		omega[i] = spSrc.Dist[v] + 50*rng.Float64()
	}
	var subsets [][]int // indices into servers, every subset of size 1–3
	for a := range servers {
		subsets = append(subsets, []int{a})
		for c := a + 1; c < len(servers); c++ {
			subsets = append(subsets, []int{a, c})
			for e := c + 1; e < len(servers); e++ {
				subsets = append(subsets, []int{a, c, e})
			}
		}
	}
	type row struct {
		via   []*graph.ShortestPaths
		omega []float64
	}
	rows := make([]row, len(subsets))
	for k, sub := range subsets {
		for _, d := range dests {
			best := sub[0]
			for _, i := range sub[1:] {
				if omega[i]+srvSPs[i].Dist[d] < omega[best]+srvSPs[best].Dist[d] {
					best = i
				}
			}
			rows[k].via = append(rows[k].via, srvSPs[best])
			rows[k].omega = append(rows[k].omega, omega[best])
		}
	}
	var s graph.SteinerScratch
	var out graph.SteinerTree
	if err := s.BeginSweep(g, dests, destSPs, 0); err != nil {
		b.Fatal(err)
	}
	for _, r := range rows[:2] {
		if _, err := s.SweepRow(r.via, r.omega, &out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rows[i%len(rows)]
		if _, err := s.SweepRow(r.via, r.omega, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepFirstCallWaxman100 is the standing microbenchmark of
// Online_CP's first sweep call on the engine-hot-pool substrate:
// Waxman-100 priced as an idle network for a 50 Mbps request, β^(b/cap)
// − 1 with capacities of 1,000–10,000 Mbps. Each iteration prices the
// next of 64 requests, a source and 5–20 destinations whose trees are
// built before the timer: BeginSweep over them, then SweepTree for one
// server, which is the full call — the closure MST, the expansion and
// the pruning. Not CI-gated; run with
//
//	go test ./internal/graph/ -run '^$' -bench SweepFirstCallWaxman100 -benchmem
func BenchmarkSweepFirstCallWaxman100(b *testing.B) {
	g := waxman(b, 100)
	rng := rand.New(rand.NewSource(42))
	beta := 2 * float64(g.NumNodes())
	for e := 0; e < g.NumEdges(); e++ {
		if err := g.SetWeight(e, math.Pow(beta, 50/(1000+9000*rng.Float64()))-1); err != nil {
			b.Fatal(err)
		}
	}
	type request struct {
		terms  []graph.NodeID // s_k, then D_k
		sps    []*graph.ShortestPaths
		server graph.NodeID
	}
	reqs := make([]request, 64)
	for i := range reqs {
		perm := rng.Perm(g.NumNodes())
		r := request{terms: perm[:6+rng.Intn(16)], server: perm[30]}
		for _, v := range r.terms {
			sp, err := graph.Dijkstra(g, v)
			if err != nil {
				b.Fatal(err)
			}
			r.sps = append(r.sps, sp)
		}
		reqs[i] = r
	}
	var s graph.SteinerScratch
	var out graph.SteinerTree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &reqs[i%len(reqs)]
		if err := s.BeginSweep(g, r.terms, r.sps, 1); err != nil {
			b.Fatal(err)
		}
		if err := s.SweepTree(r.server, &out); err != nil {
			b.Fatal(err)
		}
	}
}
