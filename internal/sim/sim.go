// Package sim is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§VI): workload generation,
// per-figure parameter sweeps, metric collection (operational cost,
// running time, admitted requests) and plain-text rendering of the
// resulting series.
//
// Figure index (see DESIGN.md §3):
//
//	Fig5 — Appro_Multi vs Alg_One_Server on random networks
//	       (cost and running time vs network size, one panel per
//	       destination ratio)
//	Fig6 — the same algorithms on GÉANT and AS1755 vs the ratio
//	Fig7 — Appro_Multi_Cap under resource capacity constraints
//	Fig8 — Online_CP vs SP: admitted requests vs network size
//	Fig9 — Online_CP vs SP on GÉANT / AS1755 vs number of requests
//	AblationK, AblationEvaluator, AblationCostModel — design-choice
//	       sweeps from DESIGN.md §4
//	ExtChurn, ExtErlang, ExtOnlineK, ExtReoptimize, ExtStretch,
//	ExtOptGap, ExtRecover, ExtDistChain — extension experiments
//	       beyond the paper (DESIGN.md §3)
//
// Every driver is a few lines over the primitives in sweep.go: a grid
// of independent sweep cells, one offline solve and its timed
// averages, one arrival/admit loop over an admission engine, one
// checkpoint axis and one cost/time panel pair. Experiments is the
// table of drivers the CLI runs. Replicate runs any experiment across
// several seeds and aggregates mean ± 95% CI per point.
package sim

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"nfvmcast/internal/engine"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// Config controls an experiment run.
type Config struct {
	// Requests is the number of requests averaged per measurement
	// point (the paper uses 1000 offline and 300 online; the defaults
	// here are sized so a full run completes in minutes).
	Requests int
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
	// K is the server budget for Appro_Multi (paper default 3).
	K int
	// NetworkSizes are the random-network sizes swept by Figs. 5, 7
	// and 8.
	NetworkSizes []int
	// DestRatios are the D_max/|V| panels of Fig. 5 and the x-axis of
	// Fig. 6.
	DestRatios []float64
	// Workers is passed through to core.Options.Workers for every
	// Appro_Multi solve. The default 0 keeps the per-solve evaluation
	// sequential, which is right for the harness: forEachIndex already
	// saturates the CPUs across sweep points, and nesting a per-CPU
	// pool inside each solve would only oversubscribe. Set it > 1 (or
	// negative for per-CPU) when measuring single solves.
	Workers int
	// EngineWorkers is the planning concurrency of the admission
	// engine the online drivers (Figs. 8-9, churn, Erlang, online-K,
	// Fig. 7's sequential admission) run through. The default 0 keeps
	// every engine in sequential mode, whose decisions are
	// byte-identical to the pre-engine admitters (the determinism
	// oracle in internal/engine pins this) — so published figures do
	// not change. Like Workers, raise it only when measuring a single
	// run: the harness already saturates the CPUs across sweep points.
	EngineWorkers int
	// Metrics, when non-nil, is the observability registry every
	// admission engine of the run attaches to: per-policy lifecycle
	// counters and reason-labelled rejection counts accumulate across
	// all sweep points of the experiment (instruments are
	// concurrency-safe, so the parallel harness needs no extra
	// coordination). nil — the default — keeps the drivers
	// uninstrumented. Write the accumulated state out with
	// WriteMetricsSummary.
	Metrics *obs.Registry
}

// DefaultConfig returns the evaluation's parameters with request
// counts sized for an interactive run.
func DefaultConfig() Config {
	return Config{
		Requests:     100,
		Seed:         42,
		K:            3,
		NetworkSizes: []int{50, 100, 150, 200, 250},
		DestRatios:   []float64{0.05, 0.10, 0.15, 0.20},
	}
}

func (c Config) validate() error {
	if c.Requests < 1 {
		return fmt.Errorf("sim: need at least 1 request per point, got %d", c.Requests)
	}
	if c.K < 1 {
		return fmt.Errorf("sim: need K >= 1, got %d", c.K)
	}
	if len(c.NetworkSizes) == 0 || len(c.DestRatios) == 0 {
		return fmt.Errorf("sim: empty sweep axes")
	}
	return nil
}

// Series is one labelled curve of a figure. YErr, when non-nil, holds
// the 95% confidence half-width per point (set by Replicate).
type Series struct {
	Label string    `json:"label"`
	Y     []float64 `json:"y"`
	YErr  []float64 `json:"yErr,omitempty"`
}

// Figure is a reproduced figure panel: an x-axis plus one or more
// series over it.
type Figure struct {
	ID     string    `json:"id"`
	Title  string    `json:"title"`
	XLabel string    `json:"xLabel"`
	X      []float64 `json:"x"`
	YLabel string    `json:"yLabel"`
	Series []Series  `json:"series"`
}

// Render formats the figure as an aligned text table.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-10s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %22s", s.Label)
	}
	fmt.Fprintf(&b, "    [%s]\n", f.YLabel)
	for i, x := range f.X {
		fmt.Fprintf(&b, "%-10.4g", x)
		for _, s := range f.Series {
			switch {
			case i >= len(s.Y):
				fmt.Fprintf(&b, "  %22s", "-")
			case i < len(s.YErr):
				fmt.Fprintf(&b, "  %22s", fmt.Sprintf("%.2f±%.2f", s.Y[i], s.YErr[i]))
			default:
				fmt.Fprintf(&b, "  %22.2f", s.Y[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// engineOptions returns the admission-engine options a driver should
// run a policy with under cfg: the configured planning concurrency
// plus, when cfg.Metrics is set, a policy-labelled observability
// binding. Engines of the same policy across sweep points share the
// registry's instruments, so counters aggregate per policy over the
// whole run.
func engineOptions(cfg Config, policy string) engine.Options {
	o := engine.Options{Workers: cfg.EngineWorkers}
	if cfg.Metrics != nil {
		o.Obs = obs.NewAdmissionObs(cfg.Metrics, policy, obs.AdmissionObsOptions{})
	}
	return o
}

// WriteMetricsSummary writes the run's accumulated metrics registry as
// one JSON document named metrics-<experiment>.json under dir
// (creating dir if needed) and returns the written path.
func WriteMetricsSummary(dir, experiment string, reg *obs.Registry) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "metrics-"+experiment+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	werr := reg.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("sim: write metrics summary %s: %w", path, werr)
	}
	return path, nil
}

// realTopologies are the measured substrates of Figs. 6 and 9.
var realTopologies = []struct{ id, name string }{
	{"geant", "GEANT"},
	{"as1755", "AS1755"},
	{"as4755", "AS4755"},
}

// networkFor builds the evaluation network for a named topology:
// "waxman" (with the given size), "geant", "as1755" or "as4755".
// Random networks use the GT-ITM-style degree-targeted Waxman model.
func networkFor(name string, n int, seed int64) (*sdn.Network, error) {
	var (
		topo *topology.Topology
		err  error
	)
	switch name {
	case "waxman":
		topo, err = topology.WaxmanDegree(n, topology.DefaultAvgDegree, 0.14, seed)
	case "geant":
		topo = topology.GEANT()
	case "as1755":
		topo = topology.AS1755()
	case "as4755":
		topo = topology.AS4755()
	case "fattree":
		// Arity chosen so node count is near n: k=8 gives 80 switches.
		topo, err = topology.FatTree(8, seed)
	default:
		return nil, fmt.Errorf("sim: unknown topology %q", name)
	}
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	return sdn.NewNetwork(topo, sdn.DefaultConfig(), rng)
}

// Experiments is the table of experiment drivers, in the order the CLI
// lists them. Online marks the experiments whose request count is a
// number of online arrivals: the CLI runs them at the paper's 300
// unless the count is set explicitly.
var Experiments = []struct {
	Name   string
	Desc   string
	Run    func(Config) ([]Figure, error)
	Online bool
}{
	{"fig5", "Appro_Multi vs one-server baselines on random networks (cost & time)", Fig5, false},
	{"fig6", "the same algorithms on GEANT, AS1755 and AS4755", Fig6, false},
	{"fig7", "Appro_Multi_Cap under capacity constraints", Fig7, false},
	{"fig8", "Online_CP vs SP admissions vs network size", Fig8, true},
	{"fig9", "Online_CP vs SP admissions vs arrivals (GEANT, AS1755)", Fig9, true},
	{"ablation-k", "Appro_Multi cost/time vs server budget K", AblationK, false},
	{"ablation-evaluator", "closure evaluator vs explicit auxiliary graphs", AblationEvaluator, false},
	{"ablation-costmodel", "exponential vs load-oblivious admission under load", AblationCostModel, true},
	{"ext-churn", "extension: steady-state sessions under arrival/departure churn", ExtChurn, true},
	{"ext-stretch", "extension: latency stretch of NFV steering per algorithm", ExtStretch, false},
	{"ext-erlang", "extension: acceptance ratio vs offered load (Poisson/loss system)", ExtErlang, true},
	{"ext-onlinek", "extension: online admission with K-server chains (open problem)", ExtOnlineK, true},
	{"ext-reoptimize", "extension: batch re-placement of admitted sessions", ExtReoptimize, true},
	{"ext-optgap", "extension: measured optimality gaps vs exact solutions", ExtOptGap, false},
	{"ext-recover", "extension: self-healing recovery after link failures (repair vs replan)", ExtRecover, true},
	{"ext-distchain", "extension: distributed chain placement & live reconfiguration (open problem)", ExtDistChain, true},
}

// RunExperiment runs one named experiment.
func RunExperiment(name string, cfg Config) ([]Figure, error) {
	for _, e := range Experiments {
		if e.Name == name {
			return e.Run(cfg)
		}
	}
	return nil, fmt.Errorf("sim: unknown experiment %q", name)
}
