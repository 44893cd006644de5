// Command nfvmcast solves one NFV-enabled multicast request on a
// chosen topology and prints the resulting pseudo-multicast tree.
//
// Usage:
//
//	nfvmcast -topology geant -source 17 -dest 1,5,30 -bw 100 \
//	         -chain NAT,Firewall,IDS -k 3 [-algorithm appro|oneserver|nearest|onlinecp]
//	nfvmcast -topology waxman -nodes 100 -seed 7 -source 0 -dest 10,20,30
//
// Output lists the serving node(s), the operational cost, and every
// directed hop of the routing graph (with PoP names when the topology
// provides them), then verifies delivery by packet replay.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"nfvmcast"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nfvmcast:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nfvmcast", flag.ContinueOnError)
	var (
		topoName    = fs.String("topology", "geant", "topology: geant | as1755 | as4755 | waxman | fattree")
		nodes       = fs.Int("nodes", 100, "network size (waxman only)")
		seed        = fs.Int64("seed", 42, "random seed for capacities/costs/servers")
		source      = fs.Int("source", 0, "source switch")
		destsFlag   = fs.String("dest", "", "comma-separated destination switches (required)")
		bw          = fs.Float64("bw", 100, "bandwidth demand in Mbps")
		chainFlag   = fs.String("chain", "NAT,Firewall", "comma-separated service chain")
		k           = fs.Int("k", 3, "server budget K")
		algorithm   = fs.String("algorithm", "appro", "appro | oneserver | nearest | any registry planner (\"help\" lists them; onlinecp = Online_CP)")
		dotPath     = fs.String("dot", "", "write the routing graph as Graphviz DOT to this file")
		metricsAddr = fs.String("metrics-addr", "", "after solving, serve metrics over HTTP at this address until interrupted (/metrics Prometheus text, /metrics.json, /debug/pprof/)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *algorithm == "help" {
		printAlgorithms(os.Stdout)
		return nil
	}
	if *destsFlag == "" {
		fs.Usage()
		return fmt.Errorf("missing -dest")
	}

	topo, err := buildTopology(*topoName, *nodes, *seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed + 1))
	nw, err := nfvmcast.NewNetwork(topo, nfvmcast.DefaultNetworkConfig(), rng)
	if err != nil {
		return err
	}

	dests, err := parseInts(*destsFlag)
	if err != nil {
		return fmt.Errorf("-dest: %w", err)
	}
	chain, err := parseChain(*chainFlag)
	if err != nil {
		return fmt.Errorf("-chain: %w", err)
	}
	req := &nfvmcast.Request{
		ID:            1,
		Source:        *source,
		Destinations:  dests,
		BandwidthMbps: *bw,
		Chain:         chain,
	}

	// Optional observability: the engine path reports its admission
	// lifecycle into the registry, and the network gauges export
	// residual utilisation plus exponential weight saturation.
	model := nfvmcast.DefaultCostModel(nw.NumNodes())
	var (
		metrics *nfvmcast.MetricsRegistry
		gauges  *nfvmcast.NetworkGauges
	)
	if *metricsAddr != "" {
		metrics = nfvmcast.NewMetricsRegistry()
		gauges = nfvmcast.NewNetworkGauges(metrics, nw, nfvmcast.SaturationModel{
			Alpha: model.Alpha, Beta: model.Beta,
			SigmaV: model.SigmaV, SigmaE: model.SigmaE,
		})
	}

	res, err := solve(*algorithm, *k, metrics, nw, req)
	if err != nil {
		return err
	}
	defer res.close()
	sol := res.sol

	name := func(v nfvmcast.NodeID) string {
		if len(topo.NodeNames) > 0 {
			return topo.NodeNames[v]
		}
		return strconv.Itoa(v)
	}
	fmt.Printf("topology %s: %d switches, %d links, servers %v\n",
		topo.Name, nw.NumNodes(), nw.NumEdges(), nw.Servers())
	fmt.Printf("request: %s -> %s, %.0f Mbps, chain %v\n",
		name(req.Source), nameList(req.Destinations, name), req.BandwidthMbps, req.Chain)
	fmt.Printf("algorithm %s (K=%d): operational cost %.2f\n", *algorithm, *k, sol.OperationalCost)
	fmt.Printf("service chain placed on: %s\n\n", nameList(sol.Servers, name))

	hops := sol.Tree.Hops()
	sort.Slice(hops, func(i, j int) bool {
		if hops[i].Processed != hops[j].Processed {
			return !hops[i].Processed
		}
		if hops[i].From != hops[j].From {
			return hops[i].From < hops[j].From
		}
		return hops[i].To < hops[j].To
	})
	fmt.Println("routing graph (directed hops):")
	for _, h := range hops {
		stage := "unprocessed"
		if h.Processed {
			stage = "processed  "
		}
		fmt.Printf("  [%s] %s -> %s\n", stage, name(h.From), name(h.To))
	}

	if *dotPath != "" {
		f, ferr := os.Create(*dotPath)
		if ferr != nil {
			return ferr
		}
		werr := nfvmcast.WriteTreeDOT(f, nw, topo.NodeNames, sol.Tree)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write %s: %w", *dotPath, werr)
		}
		fmt.Printf("\nrouting graph written to %s\n", *dotPath)
	}

	// Verify end to end on a controller.
	if !res.allocated {
		if err := nw.Allocate(nfvmcast.AllocationFor(req, sol.Tree)); err != nil {
			return fmt.Errorf("allocate: %w", err)
		}
	}
	ctrl := nfvmcast.NewController(nw)
	if err := ctrl.Install(req, sol.Tree); err != nil {
		return err
	}
	if err := ctrl.VerifyDelivery(req.ID); err != nil {
		return err
	}
	fmt.Println("\npacket replay: all destinations received service-chained traffic ✔")

	if metrics != nil {
		gauges.Collect(nw)
		addr, stop, serr := nfvmcast.ServeMetrics(*metricsAddr, func() *nfvmcast.MetricsRegistry { return metrics }, nil)
		if serr != nil {
			return serr
		}
		defer stop()
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		fmt.Printf("\nmetrics: http://%s/metrics (also /metrics.json, /debug/pprof/) — ctrl-c to exit\n", addr)
		<-sig
	}
	return nil
}

// solved is solve's answer: the solution, whether Admit already holds
// its resources, and close, which the caller runs once it is done with
// the network.
type solved struct {
	sol       *nfvmcast.Solution
	allocated bool
	close     func()
}

// solve answers req on nw with algorithm. The offline algorithms only
// plan; Appro_Multi evaluates its server subsets on every CPU. Engine
// planners admit, allocating the request's resources, and report their
// lifecycle into metrics when it is set.
func solve(algorithm string, k int, metrics *nfvmcast.MetricsRegistry, nw *nfvmcast.Network, req *nfvmcast.Request) (solved, error) {
	res := solved{close: func() {}}
	var err error
	regName, isEngineAlg := registryName(algorithm)
	switch {
	case algorithm == "appro":
		res.sol, err = nfvmcast.ApproMulti(nw, req, nfvmcast.Options{K: k, Workers: -1})
	case algorithm == "oneserver":
		res.sol, err = nfvmcast.AlgOneServer(nw, req, false)
	case algorithm == "nearest":
		res.sol, err = nfvmcast.AlgOneServerNearest(nw, req, false)
	case isEngineAlg:
		planner, perr := nfvmcast.NewPlanner(regName, nfvmcast.PlannerOptions{Nodes: nw.NumNodes()})
		if perr != nil {
			return solved{}, perr
		}
		var opts nfvmcast.EngineOptions
		if metrics != nil {
			opts.Obs = nfvmcast.NewAdmissionObs(metrics, planner.Name(),
				nfvmcast.AdmissionObsOptions{SampleLatency: true})
		}
		eng := nfvmcast.NewEngine(nw, planner, opts)
		res.close = func() { eng.Close() }
		res.sol, err = eng.Admit(req)
		res.allocated = err == nil
	default:
		err = fmt.Errorf("unknown algorithm %q (run -algorithm help for the table)", algorithm)
	}
	if err != nil {
		res.close()
		return solved{}, err
	}
	return res, nil
}

// registryName maps the -algorithm flag to a planner-registry name,
// keeping the historical lowercase alias, and reports whether it
// resolves to an engine-path planner.
func registryName(alg string) (string, bool) {
	if alg == "onlinecp" {
		alg = "Online_CP"
	}
	_, ok := nfvmcast.LookupPlanner(alg)
	return alg, ok
}

// printAlgorithms writes the -algorithm table: the offline one-shot
// solvers plus every planner in the policy registry.
func printAlgorithms(w io.Writer) {
	fmt.Fprintln(w, "offline algorithms (one-shot solve, no admission state):")
	fmt.Fprintln(w, "  appro      Appro_Multi: the paper's 2K-approximation over server subsets (-k budget)")
	fmt.Fprintln(w, "  oneserver  baseline: best single consolidated server")
	fmt.Fprintln(w, "  nearest    baseline: closest eligible server to the source")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "engine planners (admission through the online engine; registry names):")
	specs := nfvmcast.Planners()
	width := 0
	for _, s := range specs {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range specs {
		fmt.Fprintf(w, "  %-*s  %s\n", width, s.Name, s.Description)
	}
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "alias: onlinecp = Online_CP")
}

func buildTopology(name string, n int, seed int64) (*nfvmcast.Topology, error) {
	switch name {
	case "geant":
		return nfvmcast.GEANT(), nil
	case "as1755":
		return nfvmcast.AS1755(), nil
	case "as4755":
		return nfvmcast.AS4755(), nil
	case "waxman":
		return nfvmcast.WaxmanDegree(n, nfvmcast.DefaultAvgDegree, 0.14, seed)
	case "fattree":
		return nfvmcast.FatTree(8, seed)
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseChain(s string) (nfvmcast.Chain, error) {
	byName := map[string]nfvmcast.Function{
		"firewall":     nfvmcast.Firewall,
		"proxy":        nfvmcast.Proxy,
		"nat":          nfvmcast.NAT,
		"ids":          nfvmcast.IDS,
		"loadbalancer": nfvmcast.LoadBalancer,
		"lb":           nfvmcast.LoadBalancer,
	}
	var funcs []nfvmcast.Function
	for _, p := range strings.Split(s, ",") {
		f, ok := byName[strings.ToLower(strings.TrimSpace(p))]
		if !ok {
			return nfvmcast.Chain{}, fmt.Errorf("unknown function %q", p)
		}
		funcs = append(funcs, f)
	}
	return nfvmcast.NewChain(funcs...)
}

func nameList(vs []nfvmcast.NodeID, name func(nfvmcast.NodeID) string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = name(v)
	}
	return strings.Join(parts, ", ")
}
