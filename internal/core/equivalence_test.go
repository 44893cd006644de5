package core

// Incremental-maintenance equivalence oracle. The work-graph cache
// answers a warm planner's view() by patching cached graphs and
// repairing cached shortest-path trees in place (workgraphcache.go);
// the oracle here drives a warm planner through long randomized
// mutate-then-plan histories — allocations, releases, resizes,
// failures, restores, and deliberate threshold-crossing residual
// updates — and demands every answer stay byte-identical to a cold
// planner whose caches are rebuilt from scratch at the same state.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// residualMutator applies journal-marked residual mutations to a
// network, keeping a ledger of its own allocations so releases stay
// legal (never exceeding capacity).
type residualMutator struct {
	rng    *rand.Rand
	nw     *sdn.Network
	ledger []sdn.Allocation
}

func (m *residualMutator) randomLink() graph.EdgeID {
	return graph.EdgeID(m.rng.Intn(m.nw.NumEdges()))
}

func (m *residualMutator) randomServer() graph.NodeID {
	servers := m.nw.Servers()
	return servers[m.rng.Intn(len(servers))]
}

// step applies one random mutation. Mutations that turn out to be
// no-ops at the current state (releasing with an empty ledger, draining
// an already-dry link) silently pass — the oracle only needs the
// distribution to visit every journal path often enough.
func (m *residualMutator) step(t *testing.T) {
	t.Helper()
	switch m.rng.Intn(9) {
	case 0, 1: // partial allocation across a few links and a server
		a := sdn.Allocation{
			Links:   map[graph.EdgeID]float64{},
			Servers: map[graph.NodeID]float64{},
		}
		for i := 0; i < 1+m.rng.Intn(3); i++ {
			e := m.randomLink()
			if free := m.nw.ResidualBandwidth(e); m.nw.LinkUp(e) && free > 1 {
				a.Links[e] = free * (0.1 + 0.5*m.rng.Float64())
			}
		}
		if v := m.randomServer(); m.nw.ServerUp(v) && m.nw.ResidualCompute(v) > 1 {
			a.Servers[v] = m.nw.ResidualCompute(v) * 0.25
		}
		if len(a.Links) == 0 && len(a.Servers) == 0 {
			return
		}
		if err := m.nw.Allocate(a); err != nil {
			t.Fatalf("allocate: %v", err)
		}
		m.ledger = append(m.ledger, a)
	case 2: // release an earlier allocation (threshold may flip back)
		if len(m.ledger) == 0 {
			return
		}
		i := m.rng.Intn(len(m.ledger))
		a := m.ledger[i]
		m.ledger = append(m.ledger[:i], m.ledger[i+1:]...)
		if err := m.nw.Release(a); err != nil {
			t.Fatalf("release: %v", err)
		}
	case 3: // threshold-crossing drain: residual drops to ~0 Mbps,
		// below any request's bandwidth demand, so the link's
		// capacitated work-graph membership flips
		e := m.randomLink()
		free := m.nw.ResidualBandwidth(e)
		if !m.nw.LinkUp(e) || free <= 1e-3 {
			return
		}
		a := sdn.Allocation{Links: map[graph.EdgeID]float64{e: free - 1e-3}}
		if err := m.nw.Allocate(a); err != nil {
			t.Fatalf("drain: %v", err)
		}
		m.ledger = append(m.ledger, a)
	case 4: // resize link capacity (never below the allocated share)
		e := m.randomLink()
		allocated := m.nw.BandwidthCap(e) - m.nw.ResidualBandwidth(e)
		if err := m.nw.SetBandwidthCap(e, allocated+1+m.nw.ResidualBandwidth(e)*(0.3+m.rng.Float64())); err != nil {
			t.Fatalf("resize link: %v", err)
		}
	case 5: // resize server capacity
		v := m.randomServer()
		allocated := m.nw.ComputeCap(v) - m.nw.ResidualCompute(v)
		if err := m.nw.SetComputeCap(v, allocated+1+m.nw.ResidualCompute(v)*(0.3+m.rng.Float64())); err != nil {
			t.Fatalf("resize server: %v", err)
		}
	case 6: // toggle a link's failure state, biased towards healthy.
		// Rare: every state toggle moves StructureVersion, which
		// retires the whole cache family, so frequent toggles would
		// leave no incremental derivations to verify.
		if m.rng.Intn(4) != 0 {
			return
		}
		e := m.randomLink()
		up := m.nw.LinkUp(e)
		if err := m.nw.SetLinkUp(e, !up); err != nil {
			t.Fatalf("link state: %v", err)
		}
		if !up || m.rng.Intn(3) > 0 { // restore soon after failing
			if err := m.nw.SetLinkUp(e, true); err != nil {
				t.Fatalf("link restore: %v", err)
			}
		}
	case 7: // toggle a server's failure state (rare — see case 6)
		if m.rng.Intn(4) != 0 {
			return
		}
		v := m.randomServer()
		up := m.nw.ServerUp(v)
		if err := m.nw.SetServerUp(v, !up); err != nil {
			t.Fatalf("server state: %v", err)
		}
		if !up || m.rng.Intn(3) > 0 {
			if err := m.nw.SetServerUp(v, true); err != nil {
				t.Fatalf("server restore: %v", err)
			}
		}
	case 8: // batch: several mutations under one MutationVersion epoch
		m.nw.BeginMutationBatch()
		for i := 0; i < 2; i++ {
			e := m.randomLink()
			if free := m.nw.ResidualBandwidth(e); m.nw.LinkUp(e) && free > 1 {
				a := sdn.Allocation{Links: map[graph.EdgeID]float64{e: free * 0.5}}
				if err := m.nw.Allocate(a); err != nil {
					t.Fatalf("batch allocate: %v", err)
				}
				m.ledger = append(m.ledger, a)
			}
		}
		m.nw.EndMutationBatch()
	}
}

// TestMutateThenPlanEquivalence is the oracle: a warm CP/CPK planner
// whose caches live through a long mutation history must answer every
// plan byte-identically to a cold planner built fresh at the same
// network state — same trees, same costs (as float bits), same error
// text.
func TestMutateThenPlanEquivalence(t *testing.T) {
	type netCase struct {
		name  string
		build func() *sdn.Network
	}
	nets := []netCase{
		{"waxman50", func() *sdn.Network { return testNetwork(t, 50, 9) }},
		{"geant", func() *sdn.Network { return geantNetwork(t, 4) }},
	}
	for _, mode := range []string{"cp", "cpk"} {
		for _, nc := range nets {
			t.Run(mode+"/"+nc.name, func(t *testing.T) {
				nw := nc.build()
				model := DefaultCostModel(nw.NumNodes())
				newPlanner := func() (Planner, *workGraphCache) {
					if mode == "cp" {
						p, err := NewCPPlanner(model)
						if err != nil {
							t.Fatal(err)
						}
						return p, &p.cache
					}
					p, err := NewCPKPlanner(model, 2)
					if err != nil {
						t.Fatal(err)
					}
					return p, &p.cache
				}
				warm, warmCache := newPlanner()
				mut := &residualMutator{rng: rand.New(rand.NewSource(101)), nw: nw}
				gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 33)
				if err != nil {
					t.Fatal(err)
				}
				// A small cycling request pool: the cache families are
				// keyed on (structure, bandwidth, demand), so the same
				// request must recur while its earlier entry is still
				// within the residual journal's history window for a
				// patch or rekey to be attempted at all.
				reqs, err := gen.Batch(6)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 150; step++ {
					mut.step(t)
					req := reqs[step%len(reqs)]
					cold, _ := newPlanner()
					coldSol, coldErr := cold.Plan(context.Background(), nw, req, nil)
					warmSol, warmErr := warm.Plan(context.Background(), nw, req, nil)
					if (warmErr == nil) != (coldErr == nil) {
						t.Fatalf("step %d: err mismatch: warm %v, cold %v", step, warmErr, coldErr)
					}
					if warmErr != nil {
						if warmErr.Error() != coldErr.Error() {
							t.Fatalf("step %d: error text: warm %q, cold %q", step, warmErr, coldErr)
						}
						continue
					}
					sameSolution(t, warmSol, coldSol, "warm vs cold")
				}
				hits, rekeys, patches, builds := warmCache.stats()
				t.Logf("warm cache: %d hits, %d rekeys, %d patches, %d builds",
					hits, rekeys, patches, builds)
				if rekeys+patches == 0 {
					t.Fatalf("oracle never exercised the incremental path: %d hits, %d builds",
						hits, builds)
				}
			})
		}
	}
}

// TestCacheSingleflightBuildCounts asserts a cold-miss stampede on both
// caches collapses to one build: concurrent planners asking for the
// same (network, request) work graph share a single buildWorkGraph,
// and concurrent root lookups in an spCache share a single Dijkstra.
func TestCacheSingleflightBuildCounts(t *testing.T) {
	nw := testNetwork(t, 50, 9)
	model := DefaultCostModel(nw.NumNodes())
	p, err := NewCPPlanner(model)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, nw, 5)

	const callers = 16
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var spcs [callers]*spCache
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			w, spc := p.cache.acquire(nw, req)
			if w == nil || spc == nil {
				t.Errorf("caller %d: nil work graph", i)
				return
			}
			spcs[i] = spc
		}(i)
	}
	close(gate)
	wg.Wait()
	if _, _, _, builds := p.cache.stats(); builds != 1 {
		t.Fatalf("work-graph cache built %d times for one key under %d concurrent misses", builds, callers)
	}

	spc := spcs[0]
	for _, other := range spcs[1:] {
		if other != spc {
			t.Fatal("concurrent acquires returned distinct sp caches")
		}
	}
	gate = make(chan struct{})
	var wss [callers]graph.DijkstraWorkspace
	before := spc.buildCount()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			if _, err := spc.fromWith(0, &wss[i]); err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := spc.buildCount() - before; got != 1 {
		t.Fatalf("sp cache ran %d Dijkstras for one root under %d concurrent misses", got, callers)
	}
}
