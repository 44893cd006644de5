package sim

import (
	"fmt"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// offlinePoint returns offlineAlgorithms' mean costs and running times
// at one sweep point of Figs. 5-6: requests drawn with the given
// destination ratio, solved independently on the uncapacitated network
// nw (paper §VI.B).
func offlinePoint(cfg Config, nw *sdn.Network, ratio float64, seed int64) ([]float64, error) {
	gcfg := multicast.DefaultGeneratorConfig()
	gcfg.DestRatio = ratio
	return solveMeans(nw, gcfg, seed, cfg.Requests, offlineAlgorithms,
		core.Options{K: cfg.K}, unsolvable)
}

// offlinePanels returns the cost and running-time panels of an offline
// sweep over x; points[i] is offlinePoint's result at x[i].
func offlinePanels(ids [2]string, about, xlabel string, x []float64, points [][]float64) []Figure {
	na := len(offlineAlgorithms)
	s := columns(append(offlineAlgorithms[:na:na], offlineAlgorithms...), points)
	return costTimePanels(ids, about, xlabel, x, s[:na], s[na:])
}

// Fig5 reproduces Figure 5: operational cost (panels a-c) and running
// time (panels d-f) of Appro_Multi vs the one-server baselines on
// random networks of 50-250 switches, one panel per destination ratio
// (the first three ratios of cfg.DestRatios).
func Fig5(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ratios := cfg.DestRatios[:min(len(cfg.DestRatios), 3)]
	sizes := cfg.NetworkSizes
	points, err := grid(len(sizes), len(ratios), allCores, func(ni, ri int) ([]float64, error) {
		n := sizes[ni]
		nw, err := networkFor("waxman", n, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		return offlinePoint(cfg, nw, ratios[ri], cfg.Seed+int64(1000*ri+n))
	})
	if err != nil {
		return nil, err
	}
	var cost, ms []Figure
	for ri, ratio := range ratios {
		p := offlinePanels([2]string{fmt.Sprintf("Fig5(%c)", 'a'+ri), fmt.Sprintf("Fig5(%c)", 'd'+ri)},
			fmt.Sprintf("vs network size (Dmax/|V| = %.2f)", ratio), "n", floats(sizes), points[ri])
		cost, ms = append(cost, p[0]), append(ms, p[1])
	}
	return append(cost, ms...), nil
}

// Fig6 reproduces Figure 6: operational cost and running time of the
// same algorithms on the real topologies GÉANT, AS1755 and AS4755,
// sweeping the destination ratio.
func Fig6(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ratios := cfg.DestRatios
	points, err := grid(len(ratios), len(realTopologies), oneCore, func(ri, ti int) ([]float64, error) {
		nw, err := networkFor(realTopologies[ti].id, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return offlinePoint(cfg, nw, ratios[ri], cfg.Seed+int64(100*ti+ri))
	})
	if err != nil {
		return nil, err
	}
	var cost, ms []Figure
	for ti, tp := range realTopologies {
		ids := [2]string{fmt.Sprintf("Fig6(%c)", 'a'+ti), fmt.Sprintf("Fig6(%c)", 'a'+len(realTopologies)+ti)}
		p := offlinePanels(ids, "vs Dmax/|V| in "+tp.name, "Dmax/|V|", append([]float64(nil), ratios...), points[ti])
		cost, ms = append(cost, p[0]), append(ms, p[1])
	}
	// The paper's layout: cost panels first, then running times.
	return append(cost, ms...), nil
}

// Fig7 reproduces Figure 7: the operational cost and running time of
// Appro_Multi_Cap under computing and bandwidth capacity constraints,
// with Dmax/|V| = 0.2, admitting a stream of requests per network
// size — sequential admission, solving on the residual network and
// then allocating, which is the engine's plan/commit lifecycle with
// Appro_Multi_Cap as the planner. The uncapacitated Appro_Multi average
// over the same workload is included for the Fig.7-vs-Fig.5(c)
// comparison the paper makes.
func Fig7(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	points, err := grid(len(cfg.NetworkSizes), 1, allCores, func(ni, _ int) ([]float64, error) {
		n := cfg.NetworkSizes[ni]
		eng, nw, err := newEngine(cfg, "Appro_Multi_Cap", "waxman", n, cfg.Seed+int64(n), nil)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		gcfg := multicast.DefaultGeneratorConfig()
		gcfg.DestRatio = 0.2
		gen, err := multicast.NewGenerator(nw.NumNodes(), gcfg, cfg.Seed+int64(n)+7)
		if err != nil {
			return nil, err
		}
		var (
			capCost, uncapCost, capMS float64
			capCount, uncapCount      int
		)
		next := func() (arrival, error) {
			req, err := gen.Next()
			if err != nil {
				return arrival{}, err
			}
			// Uncapacitated reference solve: a read-only pass over the
			// same network, safe while no engine operation is in flight.
			opts := core.Options{K: cfg.K}
			if sol, err := solveOffline("Appro_Multi", nw, req, opts); err == nil {
				uncapCost += sol.OperationalCost
				uncapCount++
			}
			return arrival{req: req}, nil
		}
		err = admitAll(eng, cfg.Requests, 0, next, func(o outcome) error {
			if o.sol != nil { // a request infeasible under residual capacities is skipped
				capCost += o.sol.OperationalCost
				capMS += millis(o.took)
				capCount++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if capCount == 0 || uncapCount == 0 {
			return nil, fmt.Errorf("sim: fig7 point n=%d admitted nothing", n)
		}
		cc := float64(capCount)
		return []float64{capCost / cc, uncapCost / float64(uncapCount), capMS / cc, cc}, nil
	})
	if err != nil {
		return nil, err
	}
	s := columns([]string{"Appro_Multi_Cap", "Appro_Multi (uncap)", "Appro_Multi_Cap", "admitted (of requests)"}, points[0])
	return costTimePanels([2]string{"Fig7(a)", "Fig7(b)"},
		"of Appro_Multi_Cap vs network size (Dmax/|V| = 0.20)", "n", floats(cfg.NetworkSizes), s[:2], s[2:]), nil
}

// AblationK sweeps the server budget K of Appro_Multi on one network
// size, quantifying the cost/time trade-off behind the paper's choice
// of K = 3 (DESIGN.md §4).
func AblationK(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.NetworkSizes[len(cfg.NetworkSizes)/2]
	nw, err := networkFor("waxman", n, cfg.Seed+int64(n))
	if err != nil {
		return nil, err
	}
	points, err := grid(cfg.K, 1, oneCore, func(ki, _ int) ([]float64, error) {
		return solveMeans(nw, multicast.DefaultGeneratorConfig(), cfg.Seed+99, cfg.Requests,
			[]string{"Appro_Multi"}, core.Options{K: ki + 1}, anyError)
	})
	if err != nil {
		return nil, err
	}
	return []Figure{{
		ID:     "AblationK",
		Title:  fmt.Sprintf("Appro_Multi cost and time vs server budget K (n = %d)", n),
		XLabel: "K",
		X:      numbered(1, cfg.K),
		YLabel: "avg cost / avg ms",
		Series: columns([]string{"operational cost", "running time (ms)", "avg servers used"}, points[0]),
	}}, nil
}

// AblationEvaluator compares the default closure-based subset
// evaluator against the paper-literal explicit auxiliary-graph
// construction: equal-quality trees, very different running time
// (DESIGN.md §4).
func AblationEvaluator(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.NetworkSizes[0]
	nw, err := networkFor("waxman", n, cfg.Seed+int64(n))
	if err != nil {
		return nil, err
	}
	points, err := grid(2, 1, oneCore, func(vi, _ int) ([]float64, error) {
		return solveMeans(nw, multicast.DefaultGeneratorConfig(), cfg.Seed+7, cfg.Requests,
			[]string{"Appro_Multi"}, core.Options{K: 2, ExplicitAuxiliary: vi == 1}, anyError)
	})
	if err != nil {
		return nil, err
	}
	return []Figure{{
		ID:     "AblationEvaluator",
		Title:  fmt.Sprintf("closure evaluator vs explicit auxiliary graphs (n = %d, K = 2)", n),
		XLabel: "variant(0=closure,1=explicit)",
		X:      numbered(0, 2),
		YLabel: "avg cost / avg ms",
		Series: columns([]string{"operational cost", "running time (ms)"}, points[0]),
	}}, nil
}

// ExtStretch is an extension experiment beyond the paper: the latency
// price of NFV steering. For each algorithm it reports the average
// *stretch* — worst-destination delivery hops (including the service
// chain detour and pseudo-multicast back-tracking) divided by the
// plain shortest-path distance — across network sizes, over the
// requests that algorithm solves.
func ExtStretch(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ys, err := grid(len(cfg.NetworkSizes), len(offlineAlgorithms), allCores, func(ni, ai int) (float64, error) {
		n, alg := cfg.NetworkSizes[ni], offlineAlgorithms[ai]
		nw, err := networkFor("waxman", n, cfg.Seed+int64(n))
		if err != nil {
			return 0, err
		}
		gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.DefaultGeneratorConfig(), cfg.Seed+int64(n)+3)
		if err != nil {
			return 0, err
		}
		var sum float64
		count := 0
		for i := 0; i < cfg.Requests; i++ {
			req, err := gen.Next()
			if err != nil {
				return 0, err
			}
			sol, err := solveOffline(alg, nw, req, core.Options{K: cfg.K})
			if err != nil {
				continue
			}
			stretch, err := sol.Tree.Stretch(nw.Graph())
			if err != nil {
				return 0, err
			}
			sum += stretch
			count++
		}
		if count == 0 {
			return 0, fmt.Errorf("sim: stretch point n=%d solved nothing for %s", n, alg)
		}
		return sum / float64(count), nil
	})
	if err != nil {
		return nil, err
	}
	return []Figure{{
		ID:     "ExtStretch",
		Title:  "latency stretch of NFV steering vs network size",
		XLabel: "n",
		X:      floats(cfg.NetworkSizes),
		YLabel: "avg worst-destination stretch",
		Series: labelled(offlineAlgorithms, ys),
	}}, nil
}
