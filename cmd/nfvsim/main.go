// Command nfvsim regenerates the paper's evaluation figures.
//
// Usage:
//
//	nfvsim -experiment fig5 [-requests 100] [-seed 42] [-k 3]
//	nfvsim -experiment all [-reps 5] [-json results/]
//	nfvsim -experiment fig8 -quick
//	nfvsim -experiment fig8 -metrics-addr :9090 -metrics-dir results/
//	nfvsim -metrics-addr :9090   # serve an idle metrics endpoint
//	nfvsim -list
//	nfvsim -scenario flash-crowd            # shipped scenario by name
//	nfvsim -scenario path/to/scenario.json  # declarative JSON scenario
//	nfvsim -scenario all -json results/
//	nfvsim -scenario flash-crowd -daemon http://127.0.0.1:8080
//	nfvsim -scenario-list
//
// Each experiment prints one aligned text table per figure panel; see
// DESIGN.md §3 for the figure index and EXPERIMENTS.md for recorded
// paper-vs-measured results. With -metrics-addr the admission engines
// of the online drivers report per-policy counters, reason-labelled
// rejections and gauges at http://<addr>/metrics (Prometheus text
// format; /metrics.json and /debug/pprof/ are also mounted), and
// -metrics-dir writes one metrics-<experiment>.json summary per
// experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"nfvmcast/internal/obs"
	"nfvmcast/internal/sim"
	"nfvmcast/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nfvsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nfvsim", flag.ContinueOnError)
	var (
		experiment  = fs.String("experiment", "", "experiment to run (or 'all')")
		list        = fs.Bool("list", false, "list available experiments")
		requests    = fs.Int("requests", 0, "requests per measurement point (default per-experiment)")
		seed        = fs.Int64("seed", 42, "random seed")
		k           = fs.Int("k", 3, "server budget K for Appro_Multi")
		quick       = fs.Bool("quick", false, "smaller sweeps for a fast smoke run")
		jsonDir     = fs.String("json", "", "also write results as JSON into this directory")
		reps        = fs.Int("reps", 1, "repetitions per experiment (mean ± 95% CI when > 1)")
		metricsAddr = fs.String("metrics-addr", "", "serve engine metrics over HTTP at this address (/metrics Prometheus text, /metrics.json, /debug/pprof/); with no -experiment, serve until interrupted")
		metricsDir  = fs.String("metrics-dir", "", "write one metrics-<experiment>.json summary per experiment into this directory")
		scenarioRun = fs.String("scenario", "", "run a scenario: a shipped name (see -scenario-list), 'all', or a JSON config path")
		scenarioLs  = fs.Bool("scenario-list", false, "list the shipped scenario library (tenants, shards, failure steps per scenario)")
		shards      = fs.Int("shards", -1, "override the scenario's shard count (-1 = keep the config's; 0/1 = single engine; >1 routes through the shard router, one engine per identical substrate replica)")
		tenantOnly  = fs.String("tenant", "", "restrict the scenario to one tenant class by name (default: run every class)")
		daemonURL   = fs.String("daemon", "", "drive the scenario against a live nfvmcastd at this base URL (e.g. http://127.0.0.1:8080) instead of in-process; the daemon must be serving the scenario's topology and seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenarioLs {
		listScenarios(os.Stdout)
		return nil
	}
	if *scenarioRun != "" {
		return runScenarios(*scenarioRun, scenarioOverrides{
			shards: *shards,
			tenant: *tenantOnly,
			daemon: *daemonURL,
		}, *jsonDir)
	}
	if *list || (*experiment == "" && *metricsAddr == "") {
		fmt.Println("available experiments:")
		for _, e := range sim.Experiments {
			fmt.Printf("  %-20s %s\n", e.Name, e.Desc)
		}
		fmt.Println("  all                  run everything")
		return nil
	}

	// The served registry swaps per experiment; before the first (and
	// with no experiment at all) an empty one answers scrapes.
	var current atomic.Pointer[obs.Registry]
	current.Store(obs.NewRegistry())
	if *metricsAddr != "" {
		addr, stop, err := obs.ListenAndServe(*metricsAddr, current.Load, nil)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Printf("# metrics: http://%s/metrics (also /metrics.json, /debug/pprof/)\n", addr)
		if *experiment == "" {
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			fmt.Println("# no -experiment: serving metrics until interrupted (ctrl-c)")
			<-sig
			return nil
		}
	}

	cfg := sim.DefaultConfig()
	cfg.Seed = *seed
	cfg.K = *k
	if *quick {
		cfg.Requests = 20
		cfg.NetworkSizes = []int{50, 100, 150}
	}
	if *requests > 0 {
		cfg.Requests = *requests
	}
	ran := 0
	for _, e := range sim.Experiments {
		if *experiment != "all" && e.Name != *experiment {
			continue
		}
		ran++
		name, c := e.Name, cfg
		// The online figures are cheap per request; use the paper's 300
		// arrivals unless the user overrode the count.
		if e.Online && *requests == 0 && !*quick {
			c.Requests = 300
		}
		if *metricsAddr != "" || *metricsDir != "" {
			// Fresh registry per experiment so counters are attributable;
			// scrapes see the experiment currently running.
			c.Metrics = obs.NewRegistry()
			current.Store(c.Metrics)
		}
		start := time.Now()
		figs, err := sim.Replicate(name, c, *reps)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *metricsDir != "" {
			path, merr := sim.WriteMetricsSummary(*metricsDir, name, c.Metrics)
			if merr != nil {
				return merr
			}
			fmt.Printf("# metrics summary written to %s\n", path)
		}
		for _, f := range figs {
			fmt.Println(f.Render())
		}
		if *jsonDir != "" {
			if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*jsonDir, name+".json")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			werr := trace.NewResults(name, c, figs).Write(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("write %s: %w", path, werr)
			}
		}
		fmt.Printf("# %s completed in %v (requests=%d, seed=%d, K=%d, reps=%d)\n\n",
			name, time.Since(start).Round(time.Millisecond), c.Requests, c.Seed, c.K, *reps)
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}
