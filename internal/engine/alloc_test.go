package engine

import (
	"math/rand"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"

	"nfvmcast/internal/testutil"
)

// admitDepartAllocBudget is the most a cache-hit Engine.Admit followed
// by its Depart may allocate (DESIGN.md §8.1, "The allocation budget of
// a cache-hit admit"). CI's benchstat step checks the same path only
// against results/bench_baseline.txt, with a 10% allowance.
const admitDepartAllocBudget = 9

// TestAdmitDepartAllocationBudget pins the allocations of the
// engine-hot-pool shape in plain go test: a sequential engine on the
// Waxman-100 network of BenchmarkEngineThroughput admits and departs
// requests from a 64-request pool that has been cycled until every
// work graph and tree it needs is cached.
func TestAdmitDepartAllocationBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets hold only without -race")
	}
	topo, err := topology.WaxmanDegree(100, topology.DefaultAvgDegree, 0.14, 42)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 55)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := gen.Batch(64)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := core.NewCPPlanner(core.DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	eng := New(nw, planner, Options{Workers: 1})
	defer eng.Close()
	next, admitted := 0, 0
	cycle := func() {
		req := pool[next%len(pool)]
		next++
		if _, err := eng.Admit(req); err == nil {
			admitted++
			if _, err := eng.Depart(req.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 40*len(pool); i++ {
		cycle()
	}
	admitted = 0
	allocs := testing.AllocsPerRun(4*len(pool), cycle)
	if admitted < len(pool) {
		t.Fatalf("only %d of %d measured requests admitted", admitted, 2*len(pool)+1)
	}
	if allocs > admitDepartAllocBudget {
		t.Fatalf("cache-hit Admit+Depart: %v allocs, budget %d", allocs, admitDepartAllocBudget)
	}
	t.Logf("cache-hit Admit+Depart: %v allocs (budget %d)", allocs, admitDepartAllocBudget)
}
