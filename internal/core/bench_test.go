package core

import (
	"context"
	"math/rand"
	"testing"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// BenchmarkCPPlan measures the pure Online_CP planning cost — the
// engine's hot path (results/BENCH_engine.json shows planning dominates
// the writer by >100x) — on the Fig. 8 workload: Waxman n=100, a
// partially loaded network (64 admitted sessions), and a 64-request
// pool cycled without committing, so every iteration is one
// CPPlanner.Plan against fixed residuals. CI's bench regression gate
// holds it to results/bench_baseline.txt; refresh that file's rows with
//
//	go test ./internal/core/ -run '^$' -bench 'BenchmarkCPPlan$' -benchtime 1s -count 3 -cpu 1 -benchmem
func BenchmarkCPPlan(b *testing.B) {
	topo, err := topology.WaxmanDegree(100, topology.DefaultAvgDegree, 0.14, 42)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 55)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := gen.Batch(64)
	if err != nil {
		b.Fatal(err)
	}
	adm, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range warm {
		if _, aerr := adm.Admit(context.Background(), r, nil); aerr != nil && !IsRejection(aerr) {
			b.Fatal(aerr)
		}
	}
	pool, err := gen.Batch(64)
	if err != nil {
		b.Fatal(err)
	}
	planner, err := NewCPPlanner(DefaultCostModel(nw.NumNodes()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, perr := planner.Plan(context.Background(), nw, pool[i%len(pool)], nil); perr != nil && !IsRejection(perr) {
			b.Fatal(perr)
		}
	}
}
