package nfvmcast

// One benchmark per reproduced table/figure (see DESIGN.md §3), plus
// substrate and ablation benches. Figure benchmarks measure the
// figure's unit of work: a single request solve for the offline
// figures (Figs. 5-7) and a full admission sequence for the online
// figures (Figs. 8-9). Regenerate the actual figures with
// `go run ./cmd/nfvsim -experiment all`.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// benchNetwork builds the evaluation network for benchmarks.
func benchNetwork(b *testing.B, name string, n int, seed int64) *sdn.Network {
	b.Helper()
	var (
		topo *topology.Topology
		err  error
	)
	switch name {
	case "waxman":
		topo, err = topology.WaxmanDegree(n, topology.DefaultAvgDegree, 0.14, seed)
	case "geant":
		topo = topology.GEANT()
	case "as1755":
		topo = topology.AS1755()
	}
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// benchRequests pre-draws a request pool so generation cost stays out
// of the measured loop.
func benchRequests(b *testing.B, n int, ratio float64, count int, seed int64) []*multicast.Request {
	b.Helper()
	cfg := multicast.DefaultGeneratorConfig()
	cfg.DestRatio = ratio
	gen, err := multicast.NewGenerator(n, cfg, seed)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := gen.Batch(count)
	if err != nil {
		b.Fatal(err)
	}
	return reqs
}

// benchOffline measures one offline algorithm at one figure point.
func benchOffline(b *testing.B, topoName string, n int, ratio float64,
	solve func(*sdn.Network, *multicast.Request) (*core.Solution, error)) {
	b.Helper()
	nw := benchNetwork(b, topoName, n, 42)
	reqs := benchRequests(b, nw.NumNodes(), ratio, 64, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(nw, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: Appro_Multi vs one-server baselines, random networks ---

func BenchmarkFig5ApproMultiN50(b *testing.B) {
	benchOffline(b, "waxman", 50, 0.10, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.ApproMulti(nw, r, core.Options{K: 3})
	})
}

func BenchmarkFig5ApproMultiN150(b *testing.B) {
	benchOffline(b, "waxman", 150, 0.10, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.ApproMulti(nw, r, core.Options{K: 3})
	})
}

// BenchmarkFig5ApproMultiN150Cold is BenchmarkFig5ApproMultiN150 with
// every solve on a fresh clone of the network, made outside the timer.
// A clone starts without seeds, so every tree is a Dijkstra run: the
// cost of a solve that has no earlier solve's trees to reuse.
func BenchmarkFig5ApproMultiN150Cold(b *testing.B) {
	nw := benchNetwork(b, "waxman", 150, 42)
	reqs := benchRequests(b, nw.NumNodes(), 0.10, 64, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cold := nw.Clone()
		b.StartTimer()
		if _, err := core.ApproMulti(cold, reqs[i%len(reqs)], core.Options{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5ApproMultiN250(b *testing.B) {
	benchOffline(b, "waxman", 250, 0.10, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.ApproMulti(nw, r, core.Options{K: 3})
	})
}

func BenchmarkFig5OneServerN150(b *testing.B) {
	benchOffline(b, "waxman", 150, 0.10, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.AlgOneServer(nw, r, false)
	})
}

func BenchmarkFig5OneServerNearestN150(b *testing.B) {
	benchOffline(b, "waxman", 150, 0.10, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.AlgOneServerNearest(nw, r, false)
	})
}

// --- Figure 6: real topologies ---

func BenchmarkFig6GEANTApproMulti(b *testing.B) {
	benchOffline(b, "geant", 0, 0.15, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.ApproMulti(nw, r, core.Options{K: 3})
	})
}

func BenchmarkFig6GEANTOneServer(b *testing.B) {
	benchOffline(b, "geant", 0, 0.15, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.AlgOneServer(nw, r, false)
	})
}

func BenchmarkFig6AS1755ApproMulti(b *testing.B) {
	benchOffline(b, "as1755", 0, 0.15, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.ApproMulti(nw, r, core.Options{K: 3})
	})
}

func BenchmarkFig6AS1755OneServer(b *testing.B) {
	benchOffline(b, "as1755", 0, 0.15, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.AlgOneServer(nw, r, false)
	})
}

// --- Figure 7: capacity-constrained variant ---

func BenchmarkFig7ApproMultiCapN150(b *testing.B) {
	nw := benchNetwork(b, "waxman", 150, 42)
	reqs := benchRequests(b, nw.NumNodes(), 0.20, 64, 7)
	snap := nw.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%len(reqs)]
		sol, err := core.ApproMulti(nw, req, core.Options{K: 3, Capacitated: true})
		if err != nil {
			b.Fatal(err)
		}
		// Allocate to exercise the residual bookkeeping, restoring
		// periodically so the network never saturates mid-benchmark.
		if err := nw.Allocate(core.AllocationFor(req, sol.Tree)); err != nil {
			if rerr := nw.Restore(snap); rerr != nil {
				b.Fatal(rerr)
			}
		}
		if (i+1)%32 == 0 {
			if err := nw.Restore(snap); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figures 8-9: online admission sequences ---

// benchOnline measures a full admission sequence (the online figures'
// unit of work) for one registered policy, admitted through a
// core.Admitter.
func benchOnline(b *testing.B, topoName string, n, requests int, policy string) {
	b.Helper()
	base := benchNetwork(b, topoName, n, 42)
	gen, err := multicast.NewGenerator(base.NumNodes(), multicast.OnlineGeneratorConfig(), 7)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := gen.Batch(requests)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw := base.Clone()
		planner, err := core.NewPlanner(policy, core.PlannerOptions{Nodes: nw.NumNodes()})
		if err != nil {
			b.Fatal(err)
		}
		adm := core.NewAdmitter(nw, planner)
		b.StartTimer()
		for _, r := range reqs {
			if _, err := adm.Admit(context.Background(), r, nil); err != nil && !core.IsRejection(err) {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig8OnlineCPN100(b *testing.B) { benchOnline(b, "waxman", 100, 100, "Online_CP") }

func BenchmarkFig8OnlineSPN100(b *testing.B) { benchOnline(b, "waxman", 100, 100, "SP") }

func BenchmarkFig8OnlineSPStaticN100(b *testing.B) { benchOnline(b, "waxman", 100, 100, "SP_Static") }

func BenchmarkFig9GEANTOnlineCP(b *testing.B) { benchOnline(b, "geant", 0, 100, "Online_CP") }

func BenchmarkFig9AS1755OnlineCP(b *testing.B) { benchOnline(b, "as1755", 0, 100, "Online_CP") }

// --- Parallel subset evaluation (DESIGN.md §8) ---

// BenchmarkApproMultiParallel measures Options.Workers scaling of the
// candidate-evaluation pool on the GÉANT / K=3 workload. Before
// timing, every sub-benchmark asserts the parallel solution is
// identical to the sequential reference, so a speedup can never come
// from solving a different problem. The recorded baseline lives in
// results/BENCH_appromulti.json; regenerate it with
//
//	go test -run '^$' -bench BenchmarkApproMultiParallel -benchtime 2s .
func BenchmarkApproMultiParallel(b *testing.B) {
	nw := benchNetwork(b, "geant", 0, 42)
	reqs := benchRequests(b, nw.NumNodes(), 0.15, 16, 7)
	refs := make([]*core.Solution, len(reqs))
	for i, r := range reqs {
		ref, err := core.ApproMulti(nw, r, core.Options{K: 3, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = ref
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i, r := range reqs {
				sol, err := core.ApproMulti(nw, r, core.Options{K: 3, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if sol.OperationalCost != refs[i].OperationalCost ||
					sol.SelectionCost != refs[i].SelectionCost {
					b.Fatalf("request %d: workers=%d solution (%v, %v) differs from sequential (%v, %v)",
						i, workers, sol.OperationalCost, sol.SelectionCost,
						refs[i].OperationalCost, refs[i].SelectionCost)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ApproMulti(nw, reqs[i%len(reqs)], core.Options{K: 3, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md §4) ---

func BenchmarkAblationK1(b *testing.B) {
	benchOffline(b, "waxman", 150, 0.10, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.ApproMulti(nw, r, core.Options{K: 1})
	})
}

func BenchmarkAblationK2(b *testing.B) {
	benchOffline(b, "waxman", 150, 0.10, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.ApproMulti(nw, r, core.Options{K: 2})
	})
}

func BenchmarkAblationK3(b *testing.B) {
	benchOffline(b, "waxman", 150, 0.10, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.ApproMulti(nw, r, core.Options{K: 3})
	})
}

func BenchmarkAblationEvaluatorClosure(b *testing.B) {
	benchOffline(b, "waxman", 50, 0.10, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.ApproMulti(nw, r, core.Options{K: 2})
	})
}

func BenchmarkAblationEvaluatorExplicit(b *testing.B) {
	benchOffline(b, "waxman", 50, 0.10, func(nw *sdn.Network, r *multicast.Request) (*core.Solution, error) {
		return core.ApproMulti(nw, r, core.Options{K: 2, ExplicitAuxiliary: true})
	})
}

// --- Substrate benchmarks ---

func BenchmarkSubstrateDijkstraN250(b *testing.B) {
	nw := benchNetwork(b, "waxman", 250, 42)
	g := nw.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Dijkstra(g, i%g.NumNodes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateSteinerKMB(b *testing.B) {
	nw := benchNetwork(b, "waxman", 250, 42)
	g := nw.Graph()
	rng := rand.New(rand.NewSource(5))
	terminalSets := make([][]graph.NodeID, 16)
	for i := range terminalSets {
		terminalSets[i] = rng.Perm(g.NumNodes())[:12]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.SteinerKMB(g, terminalSets[i%len(terminalSets)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateControllerInstall(b *testing.B) {
	nw := benchNetwork(b, "waxman", 100, 42)
	reqs := benchRequests(b, nw.NumNodes(), 0.15, 32, 7)
	sols := make([]*core.Solution, len(reqs))
	for i, r := range reqs {
		sol, err := core.ApproMulti(nw, r, core.Options{K: 2})
		if err != nil {
			b.Fatal(err)
		}
		sols[i] = sol
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl := sdn.NewController(nw)
		j := i % len(reqs)
		if err := ctrl.Install(reqs[j], sols[j].Tree); err != nil {
			b.Fatal(err)
		}
		if err := ctrl.VerifyDelivery(reqs[j].ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateTopologyWaxman(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topology.WaxmanDegree(150, topology.DefaultAvgDegree, 0.14, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks ---

func BenchmarkExtOnlineCPK2N100(b *testing.B) { benchOnline(b, "waxman", 100, 100, "Online_CPK") }

func BenchmarkExtReoptimize(b *testing.B) {
	base := benchNetwork(b, "waxman", 100, 42)
	gen, err := multicast.NewGenerator(base.NumNodes(), multicast.OnlineGeneratorConfig(), 7)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := gen.Batch(60)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw := base.Clone()
		sp := core.NewAdmitter(nw, core.NewSPPlanner())
		for _, r := range reqs {
			_, _ = sp.Admit(context.Background(), r, nil)
		}
		b.StartTimer()
		if _, _, err := sp.Reoptimize(core.Options{K: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateBridges(b *testing.B) {
	nw := benchNetwork(b, "waxman", 250, 42)
	g := nw.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := graph.Bridges(g); len(got) < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkSubstrateExactSteiner(b *testing.B) {
	nw := benchNetwork(b, "waxman", 40, 42)
	g := nw.Graph()
	rng := rand.New(rand.NewSource(5))
	terminalSets := make([][]graph.NodeID, 8)
	for i := range terminalSets {
		terminalSets[i] = rng.Perm(g.NumNodes())[:6]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.SteinerExactWeight(g, terminalSets[i%len(terminalSets)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateFatTree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topology.FatTree(8, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateDeliveryDepths(b *testing.B) {
	nw := benchNetwork(b, "waxman", 150, 42)
	reqs := benchRequests(b, nw.NumNodes(), 0.15, 16, 7)
	trees := make([]*multicast.PseudoTree, len(reqs))
	for i, r := range reqs {
		sol, err := core.ApproMulti(nw, r, core.Options{K: 2})
		if err != nil {
			b.Fatal(err)
		}
		trees[i] = sol.Tree
	}
	g := nw.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trees[i%len(trees)].DeliveryDepths(g); err != nil {
			b.Fatal(err)
		}
	}
}
