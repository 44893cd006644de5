package sim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/parallel"
	"nfvmcast/internal/sdn"
)

// The primitives every driver is built from: one grid of independent
// sweep cells, one offline solve and its timed averages, one
// arrival/admit loop over an engine, one checkpoint axis and one
// cost/time panel pair.

// forEachIndex runs fn(0..n-1) concurrently, bounded by GOMAXPROCS
// workers (the shared internal/parallel pool), and returns the first
// error (by index order). Sweep points are independent — each builds
// its own seeded network and workload — so parallel execution leaves
// results bit-identical to sequential runs.
func forEachIndex(n int, fn func(i int) error) error {
	return parallel.ForEachIndex(parallel.Degree(-1), n, fn)
}

// How a grid runs its cells. The drivers that time their solves one
// at a time (Fig. 6 and the ablations) keep their cells in order, so
// the timed solves do not compete for CPUs.
const (
	allCores = false
	oneCore  = true
)

// grid evaluates cell(x, y) for every x < nx and y < ny and returns
// out[y][x]: each y's values side by side over x. Cells run in parallel
// over forEachIndex, or one at a time (y-major) when inOrder is set.
func grid[T any](nx, ny int, inOrder bool, cell func(x, y int) (T, error)) ([][]T, error) {
	out := make([][]T, ny)
	for y := range out {
		out[y] = make([]T, nx)
	}
	each := forEachIndex
	if inOrder {
		each = func(n int, fn func(int) error) error { return parallel.ForEachIndex(1, n, fn) }
	}
	err := each(nx*ny, func(i int) error {
		x, y := i%nx, i/nx
		v, err := cell(x, y)
		out[y][x] = v
		return err
	})
	return out, err
}

// labelled pairs every label with its values: Series{labels[i], ys[i]}.
func labelled(labels []string, ys [][]float64) []Series {
	out := make([]Series, len(labels))
	for i, l := range labels {
		out[i] = Series{Label: l, Y: ys[i]}
	}
	return out
}

// columns turns points that each hold one value per label (and
// possibly more, ignored) into one series per label over the points.
func columns(labels []string, points [][]float64) []Series {
	out := make([]Series, len(labels))
	for i, l := range labels {
		out[i].Label = l
		for _, p := range points {
			out[i].Y = append(out[i].Y, p[i])
		}
	}
	return out
}

// numbered returns the x-axis from, from+1, …, from+n−1.
func numbered(from, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(from + i)
	}
	return xs
}

// floats returns integer sweep values (network sizes, destination
// counts) as an x-axis.
func floats(vs []int) []float64 {
	xs := make([]float64, len(vs))
	for i, n := range vs {
		xs[i] = float64(n)
	}
	return xs
}

// checkpoints returns the arrival counts step, 2·step, … ≤ n at which
// the admission figures sample a run; a step below 1 counts as 1.
func checkpoints(n, step int) []float64 {
	if step < 1 {
		step = 1
	}
	var xs []float64
	for x := step; x <= n; x += step {
		xs = append(xs, float64(x))
	}
	return xs
}

// paperStep is Fig. 9's sampling step of 50 arrivals, shortened for
// runs of fewer than 50.
func paperStep(n int) int {
	if n < 50 {
		return n/6 + 1
	}
	return 50
}

// sampleAt returns the per-arrival counts after each checkpoint.
func sampleAt(counts, xs []float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = counts[int(x)-1]
	}
	return ys
}

// costTimePanels returns the operational-cost and running-time panel
// pair of Figs. 5–7 over x, titled "operational cost <about>" and
// "running time <about>".
func costTimePanels(ids [2]string, about, xlabel string, x []float64, cost, ms []Series) []Figure {
	return []Figure{
		{ID: ids[0], Title: "operational cost " + about, XLabel: xlabel, X: x,
			YLabel: "avg operational cost", Series: cost},
		{ID: ids[1], Title: "running time " + about, XLabel: xlabel, X: x,
			YLabel: "avg running time (ms)", Series: ms},
	}
}

// offlineAlgorithms are the series of Figs. 5-6, in display order.
var offlineAlgorithms = []string{"Appro_Multi", "Alg_One_Server", "One_Server_Nearest"}

// solveOffline solves req on the uncapacitated network with the
// offline algorithm alg: Appro_Multi under opts, or one of the
// one-server baselines, which take no options.
func solveOffline(alg string, nw *sdn.Network, req *multicast.Request, opts core.Options) (*core.Solution, error) {
	switch alg {
	case "Appro_Multi":
		return core.ApproMulti(nw, req, opts)
	case "Alg_One_Server":
		return core.AlgOneServer(nw, req, false)
	case "One_Server_Nearest":
		return core.AlgOneServerNearest(nw, req, false)
	}
	return nil, fmt.Errorf("sim: unknown offline algorithm %q", alg)
}

// unsolvable accepts the errors an offline sweep skips a request for:
// the reachability failures a random workload is expected to hit.
func unsolvable(err error) bool {
	return errors.Is(err, core.ErrUnreachable) || errors.Is(err, core.ErrNoFeasibleServer)
}

// anyError accepts every error: the ablations skip whatever they
// cannot solve.
func anyError(error) bool { return true }

// millis converts a duration to milliseconds at microsecond
// resolution.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }

// solveMeans draws requests from a generator (gcfg, seed) over nw and
// solves each with every algorithm of algs in turn, timing each solve.
// A request that one algorithm fails with an error skip accepts is
// dropped for all of them, so their averages stay comparable; any other
// error fails the point. It returns the algorithms' mean operational
// costs, then their mean running times (ms), then their mean servers
// used, over the requests kept.
func solveMeans(nw *sdn.Network, gcfg multicast.GeneratorConfig, seed int64, requests int,
	algs []string, opts core.Options, skip func(error) bool) ([]float64, error) {
	gen, err := multicast.NewGenerator(nw.NumNodes(), gcfg, seed)
	if err != nil {
		return nil, err
	}
	na := len(algs)
	sums := make([]float64, 3*na)
	sols := make([]*core.Solution, na)
	took := make([]time.Duration, na)
	solved := 0
next:
	for i := 0; i < requests; i++ {
		req, err := gen.Next()
		if err != nil {
			return nil, err
		}
		for a, alg := range algs {
			start := time.Now()
			sol, err := solveOffline(alg, nw, req, opts)
			if err != nil {
				if skip(err) {
					continue next
				}
				return nil, fmt.Errorf("%s: %w", alg, err)
			}
			sols[a], took[a] = sol, time.Since(start)
		}
		solved++
		for a, sol := range sols {
			sums[a] += sol.OperationalCost
			sums[na+a] += millis(took[a])
			sums[2*na+a] += float64(len(sol.Servers))
		}
	}
	if solved == 0 {
		return nil, fmt.Errorf("sim: no request solvable at this point")
	}
	for i := range sums {
		sums[i] /= float64(solved)
	}
	return sums, nil
}

// newEngine builds policy's admission engine over a fresh
// networkFor(topo, n, seed). The planner comes from the registry with
// cfg.K as its server budget (Online_CPK's K, Appro_Multi_Cap's subset
// bound) and, when cfg.Metrics is set, reports into it under its
// policy label. cfg.EngineWorkers <= 1 (the harness default) selects
// sequential mode, which reproduces a core.Admitter
// decision-for-decision. The caller must Close the engine.
func newEngine(cfg Config, policy, topo string, n int, seed int64) (*engine.Engine, *sdn.Network, error) {
	nw, err := networkFor(topo, n, seed)
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewPlanner(policy, core.PlannerOptions{
		Nodes: nw.NumNodes(),
		K:     cfg.K,
		Solve: core.Options{K: cfg.K, Workers: cfg.Workers},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	return engine.New(nw, p, engineOptions(cfg, p.Name())), nw, nil
}

// arrival is one request offered to an engine. An admitted session
// with a positive depart time leaves before the first later arrival
// whose at time reaches it; otherwise it stays for the whole run.
type arrival struct {
	req        *multicast.Request
	at, depart float64
}

// fromGenerator offers gen's requests as sessions that never depart.
func fromGenerator(gen *multicast.Generator) func() (arrival, error) {
	return func() (arrival, error) {
		req, err := gen.Next()
		return arrival{req: req}, err
	}
}

// outcome is what one arrival came to.
type outcome struct {
	sol  *core.Solution // nil unless admitted
	err  error
	took time.Duration // wall time of the Admit call
}

// fatal returns the admission error unless it is a rejection, which is
// part of the protocol rather than a failure of the run.
func (o outcome) fatal() error {
	if o.err != nil && !core.IsRejection(o.err) {
		return o.err
	}
	return nil
}

// admitAll offers n arrivals from next to eng, one at a time. Before
// each arrival it departs the admitted sessions due by the arrival's
// time, in departure order. Every tick arrivals (never when tick is 0)
// it drives a no-op Update: the maintenance heartbeat that gives
// reconfiguring planners (Reconf_CP) their migration pass. Then it
// hands the arrival's outcome to after (nil ignores it), whose error
// stops the run.
func admitAll(eng *engine.Engine, n, tick int, next func() (arrival, error), after func(outcome) error) error {
	var pending []departure // ascending departure time
	for i := 0; i < n; i++ {
		a, err := next()
		if err != nil {
			return err
		}
		for len(pending) > 0 && pending[0].at <= a.at {
			if _, err := eng.Depart(pending[0].reqID); err != nil {
				return err
			}
			pending = pending[1:]
		}
		start := time.Now()
		sol, err := eng.Admit(a.req)
		o := outcome{sol: sol, err: err, took: time.Since(start)}
		if err == nil && a.depart > 0 {
			at := sort.Search(len(pending), func(j int) bool { return pending[j].at > a.depart })
			pending = slices.Insert(pending, at, departure{at: a.depart, reqID: a.req.ID})
		}
		if tick > 0 && (i+1)%tick == 0 {
			if err := eng.Update(func(*sdn.Network) error { return nil }); err != nil {
				return err
			}
		}
		if after != nil {
			if err := after(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// departure is a scheduled session end.
type departure struct {
	at    float64
	reqID int
}
