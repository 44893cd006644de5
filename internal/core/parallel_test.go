package core

// Determinism oracle and -race stress tests for the parallel candidate
// evaluation in ApproMulti: parallel runs must return byte-identical
// solutions to sequential ones, and one read-only sdn.Network must
// support any number of concurrent solves (the documented thread-safety
// contract of Network and workGraph).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// oracleNetwork builds one of the determinism-grid topologies.
func oracleNetwork(t testing.TB, name string, seed int64) *sdn.Network {
	t.Helper()
	var (
		topo *topology.Topology
		err  error
	)
	switch name {
	case "geant":
		topo = topology.GEANT()
	case "fattree":
		topo, err = topology.FatTree(4, seed)
	case "waxman":
		topo, err = topology.WaxmanDegree(40, topology.DefaultAvgDegree, 0.14, seed)
	default:
		t.Fatalf("unknown oracle topology %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// assertSolutionsIdentical fails unless a and b agree on costs, server
// set and the exact hop sequence (byte-identical trees).
func assertSolutionsIdentical(t *testing.T, label string, ref, got *Solution) {
	t.Helper()
	if got.OperationalCost != ref.OperationalCost {
		t.Fatalf("%s: operational cost %v != %v", label, got.OperationalCost, ref.OperationalCost)
	}
	if got.SelectionCost != ref.SelectionCost {
		t.Fatalf("%s: selection cost %v != %v", label, got.SelectionCost, ref.SelectionCost)
	}
	if len(got.Servers) != len(ref.Servers) {
		t.Fatalf("%s: server set %v != %v", label, got.Servers, ref.Servers)
	}
	for i := range ref.Servers {
		if got.Servers[i] != ref.Servers[i] {
			t.Fatalf("%s: server set %v != %v", label, got.Servers, ref.Servers)
		}
	}
	refHops, gotHops := ref.Tree.Hops(), got.Tree.Hops()
	if len(gotHops) != len(refHops) {
		t.Fatalf("%s: hop count %d != %d", label, len(gotHops), len(refHops))
	}
	for i := range refHops {
		if gotHops[i] != refHops[i] {
			t.Fatalf("%s: hop %d is %+v, want %+v", label, i, gotHops[i], refHops[i])
		}
	}
}

// TestApproMultiParallelMatchesSequential is the determinism oracle:
// across a grid of topologies (GÉANT, fat-tree, Waxman seeds) × K ∈
// {1,2,3}, ApproMulti with Workers > 1 must return identical costs,
// server set and hop sequence to Workers = 1. The tie-break rule —
// lowest (implementation cost, candidate enumeration index) — is what
// makes this exact rather than approximate.
func TestApproMultiParallelMatchesSequential(t *testing.T) {
	grid := []struct {
		topo string
		seed int64
	}{
		{"geant", 5},
		{"fattree", 8},
		{"waxman", 3},
		{"waxman", 17},
	}
	workerCounts := []int{2, 3, 8, -1}
	for _, cell := range grid {
		nw := oracleNetwork(t, cell.topo, cell.seed)
		for k := 1; k <= 3; k++ {
			for reqSeed := int64(0); reqSeed < 3; reqSeed++ {
				req := testRequest(t, nw, 900+37*cell.seed+reqSeed)
				ref, refErr := ApproMulti(nw, req, Options{K: k, Workers: 1})
				for _, workers := range workerCounts {
					label := fmt.Sprintf("%s/seed=%d/K=%d/req=%d/workers=%d",
						cell.topo, cell.seed, k, reqSeed, workers)
					got, err := ApproMulti(nw, req, Options{K: k, Workers: workers})
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s: err = %v, sequential err = %v", label, err, refErr)
					}
					if refErr != nil {
						continue
					}
					assertSolutionsIdentical(t, label, ref, got)
				}
			}
		}
	}
}

// TestApproMultiParallelMatchesSequentialExplicit runs the oracle over
// the paper-literal explicit-auxiliary evaluator, which clones the work
// graph per candidate and so exercises a different allocation pattern
// under the pool.
func TestApproMultiParallelMatchesSequentialExplicit(t *testing.T) {
	nw := oracleNetwork(t, "waxman", 11)
	for reqSeed := int64(0); reqSeed < 3; reqSeed++ {
		req := testRequest(t, nw, 700+reqSeed)
		ref, err := ApproMulti(nw, req, Options{K: 2, ExplicitAuxiliary: true, Workers: 1})
		if err != nil {
			t.Fatalf("req %d: %v", reqSeed, err)
		}
		got, err := ApproMulti(nw, req, Options{K: 2, ExplicitAuxiliary: true, Workers: 4})
		if err != nil {
			t.Fatalf("req %d: %v", reqSeed, err)
		}
		assertSolutionsIdentical(t, fmt.Sprintf("explicit/req=%d", reqSeed), ref, got)
	}
}

// TestApproMultiConcurrentSolvesSharedNetwork is the -race stress test
// pinning the documented thread-safety contract of sdn.Network and
// workGraph: many goroutines solving different requests (each itself
// running a multi-worker evaluation) against one shared, unmutated
// network must neither race nor diverge from the precomputed
// sequential solutions.
func TestApproMultiConcurrentSolvesSharedNetwork(t *testing.T) {
	nw := testNetwork(t, 40, 21)
	const goroutines = 8
	reqs := make([]*multicast.Request, goroutines)
	refs := make([]*Solution, goroutines)
	for i := range reqs {
		reqs[i] = testRequest(t, nw, 400+int64(i))
		ref, err := ApproMulti(nw, reqs[i], Options{K: 3, Workers: 1})
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		refs[i] = ref
	}
	var wg sync.WaitGroup
	failures := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for trial := 0; trial < 4; trial++ {
				sol, err := ApproMulti(nw, reqs[i], Options{K: 3, Workers: 2})
				if err != nil {
					failures[i] = fmt.Errorf("goroutine %d trial %d: %w", i, trial, err)
					return
				}
				if sol.OperationalCost != refs[i].OperationalCost ||
					sol.SelectionCost != refs[i].SelectionCost {
					failures[i] = fmt.Errorf("goroutine %d trial %d: cost (%v, %v) != (%v, %v)",
						i, trial, sol.OperationalCost, sol.SelectionCost,
						refs[i].OperationalCost, refs[i].SelectionCost)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range failures {
		if err != nil {
			t.Fatal(err)
		}
	}
}
