package nfvmcast_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	"nfvmcast"
	"nfvmcast/internal/engine"
)

// ExampleApproMulti solves one NFV-enabled multicast request on a
// hand-built five-switch network with a single server.
func ExampleApproMulti() {
	// Topology: 0—1—2—3—4 in a line, server at switch 2.
	g := nfvmcast.NewGraph(5)
	for i := 0; i < 4; i++ {
		if _, err := g.AddEdge(i, i+1, 1); err != nil {
			fmt.Println("build:", err)
			return
		}
	}
	topo := &nfvmcast.Topology{Name: "line5", Graph: g, Servers: 1}
	rng := rand.New(rand.NewSource(7))
	nw, err := nfvmcast.NewNetworkWithServers(
		topo, nfvmcast.DefaultNetworkConfig(), []nfvmcast.NodeID{2}, rng)
	if err != nil {
		fmt.Println("network:", err)
		return
	}

	req := &nfvmcast.Request{
		ID:            1,
		Source:        0,
		Destinations:  []nfvmcast.NodeID{4},
		BandwidthMbps: 100,
		Chain:         nfvmcast.MustChain(nfvmcast.Firewall),
	}
	sol, err := nfvmcast.ApproMulti(nw, req, nfvmcast.Options{K: 1})
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	fmt.Printf("served by switch %d using %d directed hops\n",
		sol.Servers[0], sol.Tree.NumHops())
	// Output:
	// served by switch 2 using 4 directed hops
}

// ExampleChain shows service-chain construction and demand accounting.
func ExampleChain() {
	chain := nfvmcast.MustChain(nfvmcast.NAT, nfvmcast.Firewall, nfvmcast.IDS)
	fmt.Println(chain)
	fmt.Printf("demand at 100 Mbps: %.0f MHz\n", chain.DemandMHz(100))
	fmt.Printf("demand at 200 Mbps: %.0f MHz\n", chain.DemandMHz(200))
	// Output:
	// <NAT, Firewall, IDS>
	// demand at 100 Mbps: 140 MHz
	// demand at 200 Mbps: 280 MHz
}

// ExampleSteinerKMB computes an approximate Steiner tree directly.
func ExampleSteinerKMB() {
	// A square with a diagonal shortcut.
	g := nfvmcast.NewGraph(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 0, 1)
	g.MustAddEdge(0, 2, 1.5)
	tree, err := nfvmcast.SteinerKMB(g, []nfvmcast.NodeID{0, 1, 2})
	if err != nil {
		fmt.Println("steiner:", err)
		return
	}
	fmt.Printf("tree weight %.1f over %d edges\n", tree.Weight, len(tree.EdgeIDs))
	// Output:
	// tree weight 2.0 over 2 edges
}

// ExampleGEANT inspects the embedded real topology.
func ExampleGEANT() {
	topo := nfvmcast.GEANT()
	fmt.Printf("%s: %d PoPs, %d links, %d NFV server sites\n",
		topo.Name, topo.NumNodes(), topo.NumEdges(), topo.Servers)
	fmt.Println("node 17 is", topo.NodeNames[17])
	// Output:
	// GEANT: 40 PoPs, 66 links, 9 NFV server sites
	// node 17 is London
}

// square returns a four-switch ring network with one NFV server at
// switch 2 — small enough that every example stays deterministic, but
// cyclic, so a failed link always has a detour.
func square() *nfvmcast.Network {
	g := nfvmcast.NewGraph(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 0, 1)
	topo := &nfvmcast.Topology{Name: "square", Graph: g, Servers: 1}
	rng := rand.New(rand.NewSource(7))
	nw, err := nfvmcast.NewNetworkWithServers(
		topo, nfvmcast.DefaultNetworkConfig(), []nfvmcast.NodeID{2}, rng)
	if err != nil {
		panic(err)
	}
	return nw
}

// ExampleNewEngine builds an admission engine with the self-healing
// recovery subsystem on, admits a session, fails a link it uses, and
// reads the recovery report the engine produced inside Apply.
func ExampleNewEngine() {
	nw := square()
	planner, err := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(nw.NumNodes()))
	if err != nil {
		fmt.Println("planner:", err)
		return
	}
	pol := nfvmcast.DefaultRecoveryPolicy()
	eng := nfvmcast.NewEngine(nw, planner, nfvmcast.EngineOptions{Workers: 1, Recovery: &pol})
	defer eng.Close()

	req := &nfvmcast.Request{
		ID: 1, Source: 0, Destinations: []nfvmcast.NodeID{1, 3},
		BandwidthMbps: 50, Chain: nfvmcast.MustChain(nfvmcast.Firewall),
	}
	sol, err := eng.Admit(req)
	if err != nil {
		fmt.Println("admit:", err)
		return
	}

	// Fail the first link the session's tree uses; recovery runs
	// before Apply returns.
	// Allocation lists links in ascending edge order.
	first := nfvmcast.AllocationFor(req, sol.Tree).Links[0].Edge
	if err := eng.Apply(engine.Mutation{Kind: engine.LinkState, ID: first, Up: false}); err != nil {
		fmt.Println("apply:", err)
		return
	}
	rep := eng.LastRecovery()
	for _, out := range rep.Outcomes {
		fmt.Printf("session %d: %s\n", out.RequestID, out.Mode)
	}
	fmt.Printf("live sessions: %d\n", eng.LiveCount())
	// Output:
	// session 1: local
	// live sessions: 1
}

// ExampleDefaultOptions starts from the evaluation defaults and sets
// the fields one ApproMulti call needs.
func ExampleDefaultOptions() {
	opts := nfvmcast.DefaultOptions()
	opts.K = 2
	opts.Capacitated = true
	fmt.Printf("K=%d capacitated=%v\n", opts.K, opts.Capacitated)
	// Output:
	// K=2 capacitated=true
}

func ExampleNewController() {
	nw := square()
	req := &nfvmcast.Request{
		ID: 1, Source: 0, Destinations: []nfvmcast.NodeID{3},
		BandwidthMbps: 50, Chain: nfvmcast.MustChain(nfvmcast.NAT),
	}
	sol, err := nfvmcast.ApproMulti(nw, req, nfvmcast.Options{K: 1})
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	if err := nw.Allocate(nfvmcast.AllocationFor(req, sol.Tree)); err != nil {
		fmt.Println("allocate:", err)
		return
	}
	ctrl := nfvmcast.NewController(nw)
	if err := ctrl.Install(req, sol.Tree); err != nil {
		fmt.Println("install:", err)
		return
	}
	if err := ctrl.VerifyDelivery(req.ID); err != nil {
		fmt.Println("verify:", err)
		return
	}
	fmt.Printf("installed %d rules, delivery verified\n", ctrl.TotalRules())
	// Output:
	// installed 5 rules, delivery verified
}

// ExampleNewMetricsRegistry observes an engine: the registry counts
// the admission.
func ExampleNewMetricsRegistry() {
	nw := square()
	planner, _ := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(nw.NumNodes()))
	reg := nfvmcast.NewMetricsRegistry()
	eng := nfvmcast.NewEngine(nw, planner, nfvmcast.EngineOptions{
		Obs: nfvmcast.NewAdmissionObs(reg, planner.Name(), nfvmcast.AdmissionObsOptions{}),
	})
	defer eng.Close()
	_, _ = eng.Admit(&nfvmcast.Request{
		ID: 1, Source: 0, Destinations: []nfvmcast.NodeID{1},
		BandwidthMbps: 10, Chain: nfvmcast.MustChain(nfvmcast.Firewall),
	})
	fmt.Println("admitted:", reg.CounterValues()[`nfv_admitted_total{policy="Online_CP"}`])
	// Output:
	// admitted: 1
}

// ExampleAdmissionObsOptions attaches a ring sink to the engine's
// observer: the sink keeps the admission's lifecycle events while the
// registry counts it.
func ExampleAdmissionObsOptions() {
	nw := square()
	planner, _ := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(nw.NumNodes()))
	reg := nfvmcast.NewMetricsRegistry()
	ring := nfvmcast.NewRingSink(8)
	eng := nfvmcast.NewEngine(nw, planner, nfvmcast.EngineOptions{
		Obs: nfvmcast.NewAdmissionObs(reg, planner.Name(), nfvmcast.AdmissionObsOptions{Events: ring}),
	})
	defer eng.Close()
	_, _ = eng.Admit(&nfvmcast.Request{
		ID: 1, Source: 0, Destinations: []nfvmcast.NodeID{1},
		BandwidthMbps: 10, Chain: nfvmcast.MustChain(nfvmcast.Firewall),
	})
	for _, ev := range ring.Events() {
		fmt.Println("event:", ev.Type)
	}
	fmt.Println("admitted:", reg.CounterValues()[`nfv_admitted_total{policy="Online_CP"}`])
	// Output:
	// event: admit_planned
	// event: admitted
	// admitted: 1
}

func ExampleNewGenerator() {
	gen, err := nfvmcast.NewGenerator(40, nfvmcast.OnlineGeneratorConfig(), 1)
	if err != nil {
		fmt.Println("generator:", err)
		return
	}
	for i := 0; i < 2; i++ {
		req, _ := gen.Next()
		fmt.Printf("request %d: %d destinations, chain %v\n", req.ID, len(req.Destinations), req.Chain)
	}
	// Output:
	// request 1: 4 destinations, chain <Proxy>
	// request 2: 5 destinations, chain <LoadBalancer, IDS>
}

func ExampleWriteTopologyDOT() {
	g := nfvmcast.NewGraph(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	topo := &nfvmcast.Topology{Name: "tiny", Graph: g, Servers: 1, NodeNames: []string{"a", "b", "c"}}
	if err := nfvmcast.WriteTopologyDOT(os.Stdout, topo, []nfvmcast.NodeID{1}); err != nil {
		fmt.Println("dot:", err)
	}
	// Output:
	// graph "tiny" {
	//   layout=neato;
	//   overlap=false;
	//   node [shape=circle, fontsize=10];
	//   "a";
	//   "b" [shape=box, style=filled, fillcolor=lightblue];
	//   "c";
	//   "a" -- "b" [label="1"];
	//   "b" -- "c" [label="2"];
	// }
}

func ExampleWriteTreeDOT() {
	nw := square()
	req := &nfvmcast.Request{
		ID: 1, Source: 0, Destinations: []nfvmcast.NodeID{3},
		BandwidthMbps: 50, Chain: nfvmcast.MustChain(nfvmcast.NAT),
	}
	sol, err := nfvmcast.ApproMulti(nw, req, nfvmcast.Options{K: 1})
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	if err := nfvmcast.WriteTreeDOT(os.Stdout, nw, nil, sol.Tree); err != nil {
		fmt.Println("dot:", err)
	}
	// Output:
	// digraph pseudomulticast {
	//   rankdir=LR;
	//   node [shape=circle, fontsize=10];
	//   "v0" [shape=house, style=filled, fillcolor=palegreen];
	//   "v2" [shape=box, style=filled, fillcolor=lightblue];
	//   "v3" [shape=doublecircle];
	//   "v0" -> "v3" [style="dashed, color=gray40"];
	//   "v3" -> "v2" [style="dashed, color=gray40"];
	//   "v2" -> "v3" [style="solid, color=blue"];
	// }
}

// ExampleOptions pins the parallel-solve contract: the same call is
// byte-identical at every Options.Workers setting.
func ExampleOptions() {
	nw := square()
	req := &nfvmcast.Request{
		ID: 1, Source: 0, Destinations: []nfvmcast.NodeID{3},
		BandwidthMbps: 50, Chain: nfvmcast.MustChain(nfvmcast.NAT),
	}
	opts := nfvmcast.DefaultOptions()
	opts.Workers = 1
	seq, err := nfvmcast.ApproMulti(nw, req, opts)
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	opts.Workers = 4
	par, err := nfvmcast.ApproMulti(nw, req, opts)
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	fmt.Println("identical at any worker count:",
		seq.Servers[0] == par.Servers[0] && seq.Tree.NumHops() == par.Tree.NumHops())
	// Output:
	// identical at any worker count: true
}

// ExampleEngineOptions sets the recovery policy's gamma to zero,
// disabling local repair: the session ExampleNewEngine recovers with a
// local re-route now goes through the full re-plan path instead.
func ExampleEngineOptions() {
	nw := square()
	planner, _ := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(nw.NumNodes()))
	pol := nfvmcast.DefaultRecoveryPolicy()
	pol.Gamma = 0
	eng := nfvmcast.NewEngine(nw, planner, nfvmcast.EngineOptions{Recovery: &pol})
	defer eng.Close()
	req := &nfvmcast.Request{
		ID: 1, Source: 0, Destinations: []nfvmcast.NodeID{1, 3},
		BandwidthMbps: 50, Chain: nfvmcast.MustChain(nfvmcast.Firewall),
	}
	sol, err := eng.Admit(req)
	if err != nil {
		fmt.Println("admit:", err)
		return
	}
	// Allocation lists links in ascending edge order.
	first := nfvmcast.AllocationFor(req, sol.Tree).Links[0].Edge
	if err := eng.Apply(engine.Mutation{Kind: engine.LinkState, ID: first, Up: false}); err != nil {
		fmt.Println("apply:", err)
		return
	}
	for _, out := range eng.LastRecovery().Outcomes {
		fmt.Printf("session %d: %s\n", out.RequestID, out.Mode)
	}
	// Output:
	// session 1: replan
}

// ExampleOpenWAL runs an engine's two lives: a durable engine
// admits a session and "crashes"; a fresh engine over the same log
// replays the outcome — no planner re-runs — back to the identical
// admission state.
func ExampleOpenWAL() {
	dir, err := os.MkdirTemp("", "nfvwal")
	if err != nil {
		fmt.Println("tmp:", err)
		return
	}
	defer os.RemoveAll(dir)

	first, err := nfvmcast.OpenWAL(dir, nfvmcast.WALOptions{})
	if err != nil {
		fmt.Println("wal:", err)
		return
	}
	p1, _ := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(4))
	eng1 := nfvmcast.NewEngine(square(), p1, nfvmcast.EngineOptions{Journal: first.Journal()})
	if _, err := eng1.Admit(&nfvmcast.Request{
		ID: 1, Source: 0, Destinations: []nfvmcast.NodeID{3},
		BandwidthMbps: 25, Chain: nfvmcast.MustChain(nfvmcast.Firewall),
	}); err != nil {
		fmt.Println("admit:", err)
		return
	}
	before, _ := nfvmcast.EngineFingerprint(eng1)
	eng1.Close()
	first.Close()

	second, err := nfvmcast.OpenWAL(dir, nfvmcast.WALOptions{})
	if err != nil {
		fmt.Println("reopen:", err)
		return
	}
	defer second.Close()
	p2, _ := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(4))
	eng2 := nfvmcast.NewEngine(square(), p2, nfvmcast.EngineOptions{Journal: second.Journal()})
	defer eng2.Close()
	stats, err := second.Recover(eng2)
	if err != nil {
		fmt.Println("recover:", err)
		return
	}
	after, _ := nfvmcast.EngineFingerprint(eng2)
	fmt.Printf("replayed %d record(s), state restored: %v\n", stats.Records, before == after)
	// Output:
	// replayed 1 record(s), state restored: true
}

// ExamplePlanners walks the planner registry — the single table
// nfvmcast -algorithm, nfvsim experiment drivers, the daemon manifest
// and scenario configs all resolve policies from.
func ExamplePlanners() {
	for _, spec := range nfvmcast.Planners() {
		fmt.Println(spec.Name)
	}
	// Output:
	// Appro_Multi_Cap
	// Dist_CP
	// Online_CP
	// Online_CPK
	// Reconf_CP
	// SP
	// SP_Static
}

// ExampleNewPlanner resolves a planner by registry name and shows the
// typed miss: unknown names return ErrUnknownPlanner.
func ExampleNewPlanner() {
	nw := square()
	p, err := nfvmcast.NewPlanner("Dist_CP", nfvmcast.PlannerOptions{Nodes: nw.NumNodes()})
	if err != nil {
		fmt.Println("planner:", err)
		return
	}
	fmt.Println("resolved:", p.Name())
	_, err = nfvmcast.NewPlanner("Bogus_CP", nfvmcast.PlannerOptions{Nodes: nw.NumNodes()})
	fmt.Println("unknown name:", errors.Is(err, nfvmcast.ErrUnknownPlanner))
	// Output:
	// resolved: Dist_CP
	// unknown name: true
}
