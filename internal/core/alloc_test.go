package core

import (
	"context"
	"testing"

	"nfvmcast/internal/testutil"
)

// cpPlanAllocBudget is the most a cache-hit CPPlanner.Plan that admits
// may allocate: the Solution and its server list, and the realized tree
// (header, destination and server copies, hops, link loads). DESIGN.md
// §8.1, "The allocation budget of a cache-hit admit", itemizes it.
const cpPlanAllocBudget = 7

// TestCPPlanAllocationBudget pins BenchmarkCPPlan's allocations in plain
// go test: every request of its pool is planned once to fill the cache,
// then each plan is a cache hit against the same residuals.
func TestCPPlanAllocationBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets hold only without -race")
	}
	nw, pool, planner := cpPlanFixture(t)
	arena := NewPlanArena()
	next, admitted := 0, 0
	plan := func() {
		req := pool[next%len(pool)]
		next++
		if _, err := planner.Plan(context.Background(), nw, req, arena); err == nil {
			admitted++
		} else if !IsRejection(err) {
			t.Fatal(err)
		}
	}
	for range pool {
		plan()
	}
	builds := func() uint64 { _, b := planner.cache.stats(); return b }
	before := builds()
	admitted = 0
	allocs := testing.AllocsPerRun(2*len(pool), plan)
	if builds() != before {
		t.Fatalf("%d work graphs built while measuring: not every plan hit the cache", builds()-before)
	}
	if admitted != 2*len(pool)+1 {
		t.Fatalf("%d of %d measured plans admitted; the budget is for plans that admit", admitted, 2*len(pool)+1)
	}
	if allocs > cpPlanAllocBudget {
		t.Fatalf("cache-hit Plan: %v allocs, budget %d", allocs, cpPlanAllocBudget)
	}
	t.Logf("cache-hit Plan: %v allocs (budget %d)", allocs, cpPlanAllocBudget)
}
