package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nfvmcast/internal/daemon"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/wal"
)

// metricSet collects one run's metrics by name. Setting a name the spec
// does not list is a bug in the benchmark.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) {
	if unitOf(name) == "" {
		panic("bench: metric " + name + " is not in the spec")
	}
	m[name] = v
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// runOptions are the arguments of one workload run.
type runOptions struct {
	seed    int64
	seconds float64 // measurement time of the timed windows
	scale   float64 // multiplies seconds and the warm-up
	traced  bool
	scratch string
}

// result is one run of one workload.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metricSet
	Checks    []string // the checks that failed
	Prefix    digest   // the warm-up window's decisions
}

// A timed run sets the workload up at least setupRounds times and until
// setupFloor has been spent; setup_s is the median. Set-up takes a
// millisecond on engine-hot-pool, where the first few dozen readings of a
// fresh process (cold heap, page faults) are half again as slow as the rest.
const (
	setupRounds = 5
	setupFloor  = 500 * time.Millisecond
)

// restartBoots is how many times daemon-durable boots from its crash image.
const restartBoots = 9

//go:embed expected.json
var expectedJSON []byte

// expected holds the recorded warm-up digests: seed -> workload -> digest,
// for the one-client workloads, whose decisions are exactly reproducible.
func expected(seed int64, name string) (digest, bool) {
	var all map[string]map[string]digest
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic("bench: expected.json: " + err.Error())
	}
	d, ok := all[fmt.Sprint(seed)][name]
	return d, ok
}

// setup builds the stream and boots the workload's top-level stack: the
// whole of what setup_s times.
func setup(w *workload, o runOptions, reg *obs.Registry) (*env, stack, error) {
	nw, err := buildNetwork(w)
	if err != nil {
		return nil, nil, err
	}
	warm, seconds := int(float64(w.Warmup)*o.scale), o.seconds*o.scale
	capacity := warm + int(math.Ceil(w.CeilRate*seconds)) + liveTail + probeRequests
	st, err := newStream(w, nw.NumNodes(), capacity, o.seed)
	if err != nil {
		return nil, nil, err
	}
	e := &env{w: w, st: st, warm: warm, scratch: o.scratch, reg: reg}
	s, err := newStack(e, w.top())
	return e, s, err
}

// runWorkload runs one workload once. An error means the run could not be
// made at all; failed correctness checks are reported in the result.
func runWorkload(w *workload, o runOptions) (*result, error) {
	if w.Durable {
		if err := os.MkdirAll(o.scratch, 0o755); err != nil {
			return nil, err
		}
		fs, err := fsType(o.scratch)
		if err != nil {
			return nil, err
		}
		if fs == "tmpfs" {
			return nil, errTmpfs
		}
	}
	res := &result{Metrics: metricSet{}}
	m := res.Metrics
	fail := func(format string, args ...any) {
		res.Checks = append(res.Checks, fmt.Sprintf(format, args...))
	}

	// The traced run attaches an obs registry to the engine workloads'
	// engine; the daemon always has one, scraped over the socket.
	var reg *obs.Registry
	if o.traced && !w.isDaemon() && !w.Offline {
		reg = obs.NewRegistry()
	}
	var e *env
	var s stack
	var setups []float64
	began := time.Now()
	again := func() bool {
		switch n := len(setups); {
		case n == 0:
			return true
		case o.traced:
			return false
		default:
			return n < setupRounds || time.Since(began) < setupFloor
		}
	}
	for again() {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if e, s, err = setup(w, o, reg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { _ = s.close() }()
	m.set("setup_s", median(setups))

	d := newDriver(e, s, w.top(), w.Clients)
	d.warmup(e.warm)
	res.Prefix = d.prefix
	var before map[string]float64
	if ds, ok := s.(*daemonStack); ok {
		var err error
		if before, err = ds.counters(); err != nil {
			return nil, err
		}
	}
	budget := time.Duration(o.seconds * o.scale * float64(time.Second))
	if o.traced {
		budget = budget * 3 / 10
	}
	d.measure(budget)
	d.drain()
	t := d.total()
	res.Attempted, res.Failed = t.attempted, t.failed
	if err := d.loadMetrics(m); err != nil {
		return nil, err
	}
	if t.err != nil {
		fail("load generator: %v", t.err)
	}

	// Decisions: the online workloads other than engine-loaded admit
	// everything, and the one-client workloads reproduce the recorded
	// warm-up digest exactly.
	if w.Hold == 0 && t.admitted != t.attempted-t.failed {
		fail("admitted %d of %d requests, want all", t.admitted, t.attempted-t.failed)
	}
	if want, ok := expected(o.seed, w.Name); ok && want.Requests == d.prefix.Requests {
		if d.prefix.Admitted != want.Admitted || math.Abs(d.prefix.CostSum-want.CostSum) > 1e-9*want.CostSum {
			fail("warm-up decisions %+v differ from the recorded %+v", d.prefix, want)
		}
	}
	if share := m["shard.max_share"]; w.Shards > 1 && share > 0.6 {
		fail("largest shard served %.3f of the requests, want at most 0.6", share)
	}

	// Delivery: the kept trees must carry processed traffic to every destination.
	nw, err := buildNetwork(w)
	if err != nil {
		return nil, err
	}
	if bad := checkTrees(t.trees, nw.Graph()); bad != nil {
		fail("delivery: %v", bad)
	}

	var counters map[string]float64
	if ds, ok := s.(*daemonStack); ok {
		after, err := ds.counters()
		if err != nil {
			return nil, err
		}
		counters = delta(before, after)
		if w.Durable {
			ops := float64(len(d.allAdmit))
			m.set("wal.bytes_per_req", counters["nfv_wal_bytes_total"]/ops)
			m.set("wal.fsyncs_per_req", counters["nfv_wal_fsyncs_total"]/ops)
			m.set("wal.snapshots_per_kreq", counters["nfv_wal_snapshots_total"]/ops*1e3)
		}
	} else if reg != nil {
		counters = make(map[string]float64)
		for series, v := range reg.CounterValues() {
			name := series
			if i := strings.IndexByte(series, '{'); i >= 0 {
				name = series[:i]
			}
			counters[name] += float64(v)
		}
	}
	if o.traced && counters != nil {
		// The counters cover warm-up, windows and drain alike for an
		// attached registry; the ratios are per attempt, so that is fine.
		attempts := counters["nfv_admitted_total"] + counters["nfv_rejected_total"]
		if attempts > 0 {
			m.set("engine.plans_per_admit", counters["nfv_plans_total"]/attempts)
			m.set("engine.replans_per_kreq", counters["nfv_replans_total"]/attempts*1e3)
			m.set("engine.conflicts_per_kreq", counters["nfv_commit_conflicts_total"]/attempts*1e3)
			m.set("engine.clones_per_req", counters["nfv_snapshot_clones_total"]/attempts)
		}
	}

	// End state: nothing live (and residuals back at capacity); the durable
	// daemon instead keeps a tail of sessions for its crash image.
	if w.Durable {
		live := 0
		for live < liveTail && int(d.next.Load()) < e.st.len() {
			live += d.tail(liveTail - live)
		}
		if err := s.checkLive(liveTail); err != nil {
			fail("end state: %v", err)
		}
		if err := restarts(s.(*daemonStack), o.scratch, m, fail); err != nil {
			return nil, err
		}
	} else if err := s.checkLive(0); err != nil {
		fail("end state: %v", err)
	}

	if o.traced {
		rest := time.Duration(o.seconds*o.scale*float64(time.Second)) - budget
		if err := onion(e, rest, m); err != nil {
			fail("%v", err)
		}
		if err := probes(e, m); err != nil {
			fail("probes: %v", err)
		}
	}
	m.set("proc.peak_rss_mb", peakRSSMB())
	res.Correct = len(res.Checks) == 0
	return res, nil
}

// checkTrees runs the delivery validator over the kept trees.
func checkTrees(trees []*multicast.PseudoTree, g *graph.Graph) error {
	for _, tree := range trees {
		if tree == nil {
			return fmt.Errorf("an admitted request came back without a tree")
		}
		if err := tree.CheckDelivery(g); err != nil {
			return err
		}
	}
	return nil
}

// restarts copies the idle daemon's WAL directory — a crash image: no
// shutdown, no final snapshot — and boots a daemon from a fresh copy
// restartBoots times. Every boot must adopt the live tail and land on the
// pre-crash engine's state fingerprint.
func restarts(ds *daemonStack, scratch string, m metricSet, fail func(string, ...any)) error {
	want, err := wal.Fingerprint(ds.srv.Router().Engine("s0"))
	if err != nil {
		return err
	}
	var boots []float64
	for b := 0; b < restartBoots; b++ {
		image := filepath.Join(scratch, fmt.Sprintf("%s-crash-%d", ds.w.Name, b))
		if err := copyDir(ds.cfg.WALDir, image); err != nil {
			return err
		}
		cfg := ds.cfg
		cfg.WALDir = image
		t0 := time.Now()
		srv, err := daemon.New(cfg)
		if err != nil {
			return fmt.Errorf("boot %d from the crash image: %w", b, err)
		}
		boots = append(boots, time.Since(t0).Seconds())
		for _, st := range srv.Boot() {
			if st.Adopted != liveTail || st.Fingerprint != want {
				fail("boot %d: adopted %d sessions with fingerprint %.12s, want %d with %.12s",
					b, st.Adopted, st.Fingerprint, liveTail, want)
			}
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			return fmt.Errorf("shutdown after boot %d: %w", b, err)
		}
		if err := os.RemoveAll(image); err != nil {
			return err
		}
	}
	m.set("restart_s", median(boots))
	return nil
}

func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
