package sim

import (
	"fmt"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// onlineSeries are the figure series in display order: the paper's
// Online_CP, the SP heuristic as described (residual pruning +
// re-routing), and the static-routes SP whose behaviour matches the
// paper's reported SP numbers (see EXPERIMENTS.md).
var onlineSeries = []string{"Online_CP", "SP", "SP_Static"}

// plannerFor builds the pure planning policy behind an online series
// label, resolved from the planner registry.
func plannerFor(name string, nw *sdn.Network) (core.Planner, error) {
	p, err := core.NewPlanner(name, core.PlannerOptions{Nodes: nw.NumNodes()})
	if err != nil {
		return nil, fmt.Errorf("sim: unknown online algorithm %q", name)
	}
	return p, nil
}

// newEngine builds the admission engine every online driver runs
// through. cfg.EngineWorkers <= 1 (the harness default) selects
// sequential mode, which reproduces a core.Admitter
// decision-for-decision; the harness already parallelises across sweep
// points, so per-engine concurrency is only worth enabling when
// measuring a single run. When cfg.Metrics is set the engine reports
// into it under the planner's policy label. Callers own the engine and
// must Close it.
func newEngine(name string, nw *sdn.Network, cfg Config) (*engine.Engine, error) {
	p, err := plannerFor(name, nw)
	if err != nil {
		return nil, err
	}
	return engine.New(nw, p, engineOptions(cfg, p.Name())), nil
}

// onlineRun feeds an identical request sequence to one policy's engine
// over its own copy of the network and returns the admitted count after
// every request.
func onlineRun(cfg Config, name, topoName string, n, requests int, seed int64) ([]int, error) {
	nw, err := networkFor(topoName, n, seed)
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(name, nw, cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), seed+13)
	if err != nil {
		return nil, err
	}
	counts := make([]int, requests)
	for i := 0; i < requests; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			return nil, gerr
		}
		// Rejections are part of the protocol, not errors of the run.
		_, _ = eng.Admit(req)
		counts[i] = eng.AdmittedCount()
	}
	return counts, nil
}

// Fig8 reproduces Figure 8: the number of requests admitted by
// Online_CP and the SP baselines over a monitoring period of
// cfg.Requests arrivals (paper: 300), for each random-network size.
func Fig8(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	fig := Figure{
		ID:     "Fig8(a)",
		Title:  fmt.Sprintf("admitted requests after %d arrivals vs network size", cfg.Requests),
		XLabel: "n",
		YLabel: "admitted requests",
	}
	// Every (size, algorithm) run is independent; execute in parallel.
	finals := make([]float64, len(cfg.NetworkSizes)*len(onlineSeries))
	err := forEachIndex(len(finals), func(i int) error {
		ni, ai := i/len(onlineSeries), i%len(onlineSeries)
		n := cfg.NetworkSizes[ni]
		counts, rerr := onlineRun(cfg, onlineSeries[ai], "waxman", n, cfg.Requests, cfg.Seed+int64(n))
		if rerr != nil {
			return rerr
		}
		finals[i] = float64(counts[len(counts)-1])
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range cfg.NetworkSizes {
		fig.X = append(fig.X, float64(n))
	}
	for ai, name := range onlineSeries {
		s := Series{Label: name}
		for ni := range cfg.NetworkSizes {
			s.Y = append(s.Y, finals[ni*len(onlineSeries)+ai])
		}
		fig.Series = append(fig.Series, s)
	}
	return []Figure{fig}, nil
}

// Fig9 reproduces Figure 9: admitted requests vs the number of
// arrivals (50..cfg.Requests) in GÉANT (panel a) and AS1755 (panel b).
func Fig9(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Checkpoint every 50 arrivals as in the paper's x-axis, adapting
	// for short smoke runs.
	checkEvery := 50
	if cfg.Requests < checkEvery {
		checkEvery = cfg.Requests/6 + 1
	}
	topos := []struct{ id, name string }{
		{"geant", "GEANT"},
		{"as1755", "AS1755"},
	}
	var figs []Figure
	for ti, tp := range topos {
		fig := Figure{
			ID:     fmt.Sprintf("Fig9(%c)", 'a'+ti),
			Title:  fmt.Sprintf("admitted requests vs arrivals in %s", tp.name),
			XLabel: "requests",
			YLabel: "admitted requests",
		}
		for x := checkEvery; x <= cfg.Requests; x += checkEvery {
			fig.X = append(fig.X, float64(x))
		}
		for _, name := range onlineSeries {
			counts, err := onlineRun(cfg, name, tp.id, 0, cfg.Requests, cfg.Seed+int64(ti))
			if err != nil {
				return nil, err
			}
			s := Series{Label: name}
			for x := checkEvery; x <= cfg.Requests; x += checkEvery {
				s.Y = append(s.Y, float64(counts[x-1]))
			}
			fig.Series = append(fig.Series, s)
		}
		figs = append(figs, fig)
	}
	return figs, nil
}
