package sim

import (
	"fmt"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
)

// onlineSeries are the figure series in display order: the paper's
// Online_CP, the SP heuristic as described (residual pruning +
// re-routing), and the static-routes SP whose behaviour matches the
// paper's reported SP numbers (see EXPERIMENTS.md).
var onlineSeries = []string{"Online_CP", "SP", "SP_Static"}

// distChainSeries are the series of the distributed-chain extension
// figure: the paper's consolidated Online_CP against the registry's
// Dist_CP (chain split across up to two servers) and Reconf_CP
// (Online_CP plus drift-triggered migration of admitted trees).
var distChainSeries = []string{"Online_CP", "Dist_CP", "Reconf_CP"}

// onlineRun feeds requests online arrivals (generator seed seed+13) to
// policy's engine over networkFor(topo, n, seed), with a heartbeat
// every tick arrivals (none when tick is 0), and returns the admitted
// count after every arrival. Identical arguments give every policy the
// identical request sequence.
func onlineRun(cfg Config, policy, topo string, n int, seed int64, requests, tick int) ([]float64, error) {
	eng, nw, err := newEngine(cfg, policy, topo, n, seed, nil)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), seed+13)
	if err != nil {
		return nil, err
	}
	counts := make([]float64, 0, requests)
	// Rejections are part of the protocol, not errors of the run.
	err = admitAll(eng, requests, tick, fromGenerator(gen), func(outcome) error {
		counts = append(counts, float64(eng.AdmittedCount()))
		return nil
	})
	return counts, err
}

// Fig8 reproduces Figure 8: the number of requests admitted by
// Online_CP and the SP baselines over a monitoring period of
// cfg.Requests arrivals (paper: 300), for each random-network size.
func Fig8(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ys, err := grid(len(cfg.NetworkSizes), len(onlineSeries), allCores, func(ni, si int) (float64, error) {
		n := cfg.NetworkSizes[ni]
		counts, err := onlineRun(cfg, onlineSeries[si], "waxman", n, cfg.Seed+int64(n), cfg.Requests, 0)
		if err != nil {
			return 0, err
		}
		return counts[len(counts)-1], nil
	})
	if err != nil {
		return nil, err
	}
	return []Figure{{
		ID:     "Fig8(a)",
		Title:  fmt.Sprintf("admitted requests after %d arrivals vs network size", cfg.Requests),
		XLabel: "n",
		X:      floats(cfg.NetworkSizes),
		YLabel: "admitted requests",
		Series: labelled(onlineSeries, ys),
	}}, nil
}

// Fig9 reproduces Figure 9: admitted requests vs the number of
// arrivals (every 50 up to cfg.Requests) in GÉANT (panel a) and AS1755
// (panel b).
func Fig9(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topos := realTopologies[:2]
	xs := checkpoints(cfg.Requests, paperStep(cfg.Requests))
	ys, err := grid(len(onlineSeries), len(topos), allCores, func(si, ti int) ([]float64, error) {
		counts, err := onlineRun(cfg, onlineSeries[si], topos[ti].id, 0, cfg.Seed+int64(ti), cfg.Requests, 0)
		if err != nil {
			return nil, err
		}
		return sampleAt(counts, xs), nil
	})
	if err != nil {
		return nil, err
	}
	figs := make([]Figure, len(topos))
	for ti, tp := range topos {
		figs[ti] = Figure{
			ID:     fmt.Sprintf("Fig9(%c)", 'a'+ti),
			Title:  fmt.Sprintf("admitted requests vs arrivals in %s", tp.name),
			XLabel: "requests",
			X:      xs,
			YLabel: "admitted requests",
			Series: labelled(onlineSeries, ys[ti]),
		}
	}
	return figs, nil
}

// AblationCostModel isolates the effect of the exponential cost model
// (paper §V.A's argument against linear costs): Online_CP vs the
// load-oblivious SP variants on one network under sustained load.
func AblationCostModel(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.NetworkSizes[len(cfg.NetworkSizes)/2]
	requests := 3 * cfg.Requests
	xs := checkpoints(requests, requests/6)
	ys, err := grid(len(onlineSeries), 1, allCores, func(si, _ int) ([]float64, error) {
		counts, err := onlineRun(cfg, onlineSeries[si], "waxman", n, cfg.Seed+5, requests, 0)
		if err != nil {
			return nil, err
		}
		return sampleAt(counts, xs), nil
	})
	if err != nil {
		return nil, err
	}
	return []Figure{{
		ID:     "AblationCostModel",
		Title:  fmt.Sprintf("admission under sustained load (n = %d, %d requests)", n, requests),
		XLabel: "requests",
		X:      xs,
		YLabel: "admitted requests",
		Series: labelled(onlineSeries, ys[0]),
	}}, nil
}

// ExtDistChain is an extension experiment beyond the paper: admitted
// requests over a monitoring period for consolidated Online_CP versus
// the distributed-chain Dist_CP and the reconfiguring Reconf_CP, on
// (a) a capacity-tight GÉANT arm — three times the usual monitoring
// period on 40 switches, so consolidated placement exhausts
// single-server compute headroom and splitting the chain is the only
// way to keep admitting — and (b) a mid-size random network at the
// standard load, where the policies should roughly tie. Every series
// gets a heartbeat at each checkpoint, not just the reconfiguring one,
// so the comparison stays fair. The paper leaves distributed placement
// as an open problem (§VII); this figure quantifies what the
// relaxation buys.
func ExtDistChain(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.NetworkSizes[len(cfg.NetworkSizes)/2]
	arms := []struct {
		label    string
		topo     string
		n        int
		requests int
	}{
		{"GEANT (capacity-tight)", "geant", 0, 3 * cfg.Requests},
		{fmt.Sprintf("waxman n=%d", n), "waxman", n, cfg.Requests},
	}
	ys, err := grid(len(distChainSeries), len(arms), allCores, func(si, ai int) ([]float64, error) {
		arm := arms[ai]
		step := paperStep(arm.requests)
		counts, err := onlineRun(cfg, distChainSeries[si], arm.topo, arm.n, cfg.Seed+int64(ai), arm.requests, step)
		if err != nil {
			return nil, err
		}
		return sampleAt(counts, checkpoints(arm.requests, step)), nil
	})
	if err != nil {
		return nil, err
	}
	figs := make([]Figure, len(arms))
	for ai, arm := range arms {
		figs[ai] = Figure{
			ID:     fmt.Sprintf("ExtDistChain(%c)", 'a'+ai),
			Title:  fmt.Sprintf("admitted requests vs arrivals, %s", arm.label),
			XLabel: "requests",
			X:      checkpoints(arm.requests, paperStep(arm.requests)),
			YLabel: "admitted requests",
			Series: labelled(distChainSeries, ys[ai]),
		}
	}
	return figs, nil
}

// ExtChurn is an extension experiment beyond the paper: sessions have
// finite lifetimes (each departs a fixed number of arrivals after
// admission), and the metric is the steady-state number of concurrent
// live sessions each policy sustains. It shows the online algorithms
// operating as long-running systems rather than over one monitoring
// period.
func ExtChurn(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.NetworkSizes[len(cfg.NetworkSizes)/2]
	arrivals := 6 * cfg.Requests
	lifetime := max(cfg.Requests/2, 10)
	xs := checkpoints(arrivals, arrivals/8)
	ys, err := grid(len(onlineSeries), 1, allCores, func(si, _ int) ([]float64, error) {
		eng, _, err := newEngine(cfg, onlineSeries[si], "waxman", n, cfg.Seed+int64(n), nil)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		gen, err := multicast.NewGenerator(n, multicast.OnlineGeneratorConfig(), cfg.Seed+13)
		if err != nil {
			return nil, err
		}
		// Arrival i (from 1) happens at time i and its session, if
		// admitted, departs at time i + lifetime.
		i := 0
		next := func() (arrival, error) {
			i++
			req, err := gen.Next()
			return arrival{req: req, at: float64(i), depart: float64(i + lifetime)}, err
		}
		live := make([]float64, 0, arrivals)
		err = admitAll(eng, arrivals, 0, next, func(o outcome) error {
			live = append(live, float64(eng.LiveCount()))
			return o.fatal()
		})
		if err != nil {
			return nil, err
		}
		return sampleAt(live, xs), nil
	})
	if err != nil {
		return nil, err
	}
	return []Figure{{
		ID:     "ExtChurn",
		Title:  fmt.Sprintf("live sessions under churn (n = %d, lifetime = %d arrivals)", n, lifetime),
		XLabel: "arrivals",
		X:      xs,
		YLabel: "concurrent live sessions",
		Series: labelled(onlineSeries, ys[0]),
	}}, nil
}

// ExtErlang is an extension experiment beyond the paper: a classic
// loss-system curve. Sessions arrive as a Poisson process and hold
// resources for exponential durations (mean 1 hour, so the arrival
// rate equals the offered load); the figure plots the steady-state
// acceptance ratio of each admission policy against the offered load
// (in Erlangs). Departures interleave with arrivals in timestamp
// order.
func ExtErlang(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.NetworkSizes[len(cfg.NetworkSizes)/2]
	arrivals := 4 * cfg.Requests
	loads := []float64{10, 20, 40, 80, 160}
	ys, err := grid(len(loads), len(onlineSeries), allCores, func(li, si int) (float64, error) {
		seed := cfg.Seed + int64(li)
		eng, _, err := newEngine(cfg, onlineSeries[si], "waxman", n, seed, nil)
		if err != nil {
			return 0, err
		}
		defer eng.Close()
		gen, err := multicast.NewPoissonGenerator(n, multicast.OnlineGeneratorConfig(),
			multicast.PoissonConfig{ArrivalsPerHour: loads[li], MeanHoldingHours: 1}, seed+29)
		if err != nil {
			return 0, err
		}
		next := func() (arrival, error) {
			tr, err := gen.Next()
			if err != nil {
				return arrival{}, err
			}
			return arrival{req: tr.Request, at: tr.ArrivalHours, depart: tr.DepartureHours}, nil
		}
		accepted := 0
		err = admitAll(eng, arrivals, 0, next, func(o outcome) error {
			if o.sol != nil {
				accepted++
			}
			return o.fatal()
		})
		return float64(accepted) / float64(arrivals), err
	})
	if err != nil {
		return nil, err
	}
	return []Figure{{
		ID:     "ExtErlang",
		Title:  fmt.Sprintf("acceptance ratio vs offered load (n = %d, %d Poisson arrivals)", n, arrivals),
		XLabel: "Erlangs",
		X:      loads,
		YLabel: "accepted fraction",
		Series: labelled(onlineSeries, ys),
	}}, nil
}

// ExtOnlineK is an extension experiment beyond the paper: online
// admission with the service chain replicated on up to K servers (the
// paper analyses only K = 1). For each K it feeds the identical
// arrival sequence to Online_CPK on its own network replica and plots
// admitted requests plus the average servers used per admission.
func ExtOnlineK(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.NetworkSizes[len(cfg.NetworkSizes)/2]
	maxK := max(cfg.K, 2)
	points, err := grid(maxK, 1, allCores, func(ki, _ int) ([]float64, error) {
		c := cfg
		c.K = ki + 1
		eng, _, err := newEngine(c, "Online_CPK", "waxman", n, cfg.Seed+int64(n), nil)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		gen, err := multicast.NewGenerator(n, multicast.OnlineGeneratorConfig(), cfg.Seed+51)
		if err != nil {
			return nil, err
		}
		servers := 0
		err = admitAll(eng, cfg.Requests, 0, fromGenerator(gen), func(o outcome) error {
			if o.sol != nil {
				servers += len(o.sol.Servers)
			}
			return o.fatal()
		})
		if err != nil {
			return nil, err
		}
		admitted, avg := eng.AdmittedCount(), 0.0
		if admitted > 0 {
			avg = float64(servers) / float64(admitted)
		}
		return []float64{float64(admitted), avg}, nil
	})
	if err != nil {
		return nil, err
	}
	return []Figure{{
		ID:     "ExtOnlineK",
		Title:  fmt.Sprintf("online admission vs server budget K (n = %d, %d arrivals)", n, cfg.Requests),
		XLabel: "K",
		X:      numbered(1, maxK),
		YLabel: "admitted / avg servers",
		Series: columns([]string{"admitted requests", "avg servers used"}, points[0]),
	}}, nil
}

// ExtReoptimize is an extension experiment beyond the paper: after a
// monitoring period of online admissions, a Reoptimize maintenance
// pass re-places the admitted sessions with Appro_Multi_Cap on the
// residual network. The figure reports, per admission policy, the
// total operational cost before and after the pass — quantifying how
// much admission-order myopia costs and how much of it batch
// re-placement recovers.
func ExtReoptimize(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.NetworkSizes[len(cfg.NetworkSizes)/2]
	points, err := grid(len(onlineSeries), 1, allCores, func(pi, _ int) ([]float64, error) {
		policy := onlineSeries[pi]
		eng, _, err := newEngine(cfg, policy, "waxman", n, cfg.Seed+int64(n), nil)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		gen, err := multicast.NewGenerator(n, multicast.OnlineGeneratorConfig(), cfg.Seed+61)
		if err != nil {
			return nil, err
		}
		var sessions []*core.Solution
		err = admitAll(eng, cfg.Requests, 0, fromGenerator(gen), func(o outcome) error {
			if o.sol != nil {
				sessions = append(sessions, o.sol)
			}
			return o.fatal()
		})
		if err != nil {
			return nil, err
		}
		if len(sessions) == 0 {
			return nil, fmt.Errorf("sim: reoptimize fixture admitted nothing for %s", policy)
		}
		// The engine runs the pass under its writer lock and records
		// every move, so later departures release the right allocations.
		_, saved, err := eng.Reoptimize(core.Options{K: cfg.K})
		if err != nil {
			return nil, err
		}
		var pre, post float64
		for _, sol := range sessions {
			pre += sol.OperationalCost
		}
		for _, sol := range eng.Lives() {
			post += sol.OperationalCost
		}
		return []float64{pre, post, 100 * saved / pre}, nil
	})
	if err != nil {
		return nil, err
	}
	return []Figure{{
		ID:     "ExtReoptimize",
		Title:  fmt.Sprintf("total session cost before/after re-optimisation (n = %d, %d arrivals)", n, cfg.Requests),
		XLabel: "policy(0=CP,1=SP,2=SPstatic)",
		X:      numbered(0, len(onlineSeries)),
		YLabel: "total operational cost / % saved",
		Series: columns([]string{"before", "after", "% saved"}, points[0]),
	}}, nil
}
