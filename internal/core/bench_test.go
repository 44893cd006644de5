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
// engine's hot path, where bench/'s traced runs put core.plan_us far
// above core.commit_us — on the Fig. 8 workload: Waxman n=100, a
// partially loaded network (64 admitted sessions), and a 64-request
// pool cycled without committing, so every iteration is one
// CPPlanner.Plan against fixed residuals. CI's bench regression gate
// holds it to results/bench_baseline.txt; refresh that file's rows with
//
//	go test ./internal/core/ -run '^$' -bench 'BenchmarkCPPlan$' -benchtime 1s -count 3 -cpu 1 -benchmem
func BenchmarkCPPlan(b *testing.B) {
	nw, pool, planner := cpPlanFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, perr := planner.Plan(context.Background(), nw, pool[i%len(pool)], nil); perr != nil && !IsRejection(perr) {
			b.Fatal(perr)
		}
	}
}

// cpPlanFixture is BenchmarkCPPlan's set-up: Waxman n=100 with 64
// admitted sessions, the next 64 requests as the plan pool, and a fresh
// Online_CP planner.
func cpPlanFixture(tb testing.TB) (*sdn.Network, []*multicast.Request, *CPPlanner) {
	topo, err := topology.WaxmanDegree(100, topology.DefaultAvgDegree, 0.14, 42)
	if err != nil {
		tb.Fatal(err)
	}
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 55)
	if err != nil {
		tb.Fatal(err)
	}
	warm, err := gen.Batch(64)
	if err != nil {
		tb.Fatal(err)
	}
	adm, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range warm {
		if _, aerr := adm.Admit(context.Background(), r, nil); aerr != nil && !IsRejection(aerr) {
			tb.Fatal(aerr)
		}
	}
	pool, err := gen.Batch(64)
	if err != nil {
		tb.Fatal(err)
	}
	planner, err := NewCPPlanner(DefaultCostModel(nw.NumNodes()))
	if err != nil {
		tb.Fatal(err)
	}
	return nw, pool, planner
}
