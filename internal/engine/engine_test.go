package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// testNetwork builds a fresh, identically-seeded network replica so
// oracle runs see byte-identical capacities and server placement.
func testNetwork(t *testing.T, topoName string, seed int64) *sdn.Network {
	t.Helper()
	var (
		topo *topology.Topology
		err  error
	)
	switch topoName {
	case "geant":
		topo = topology.GEANT()
	case "waxman":
		topo, err = topology.WaxmanDegree(50, topology.DefaultAvgDegree, 0.14, seed)
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown topology %q", topoName)
	}
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// plannerFor builds a fresh registry planner of the named policy.
func plannerFor(t *testing.T, name string, nw *sdn.Network) core.Planner {
	t.Helper()
	p, err := core.NewPlanner(name, core.PlannerOptions{Nodes: nw.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// decision is one request's outcome, captured in enough detail that two
// runs agreeing on every decision have produced identical trees.
type decision struct {
	admitted bool
	servers  []graph.NodeID
	loads    []multicast.EdgeLoad
	opCost   float64
	selCost  float64
}

func captureDecision(sol *core.Solution, err error) decision {
	if err != nil {
		return decision{}
	}
	return decision{
		admitted: true,
		servers:  sol.Servers,
		loads:    sol.Tree.LinkLoads(),
		opCost:   sol.OperationalCost,
		selCost:  sol.SelectionCost,
	}
}

func sameDecision(a, b decision) bool {
	if a.admitted != b.admitted {
		return false
	}
	if !a.admitted {
		return true
	}
	if !slices.Equal(a.servers, b.servers) || !slices.Equal(a.loads, b.loads) {
		return false
	}
	return a.opCost == b.opCost && a.selCost == b.selCost
}

// requestPool pre-generates the fig8/fig9 arrival sequence so every run
// replays the identical workload.
func requestPool(t *testing.T, n, count int, seed int64) []*multicast.Request {
	t.Helper()
	gen, err := multicast.NewGenerator(n, multicast.OnlineGeneratorConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.Batch(count)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestEngineDeterminismOracle pins the equivalence claim for every
// policy in the planner registry: the engine in sequential mode — and
// at workers=4 and 8 when driven one request at a time — makes
// byte-identical admit/reject decisions, trees and costs per request to
// a core.Admitter driving a fresh planner of the same policy
// sequentially, across both a real (GÉANT) and a random (Waxman)
// topology. The metrics registry rides along: every decision counter
// (admitted, departed, per-reason rejected) must also agree between the
// worker counts — only mode-dependent machinery counters (snapshot
// clones, plan invocations) may differ.
func TestEngineDeterminismOracle(t *testing.T) {
	const requests = 60
	decisionCounterPrefixes := []string{
		"nfv_admitted_total", "nfv_rejected_total", "nfv_departed_total",
	}
	for _, topoName := range []string{"geant", "waxman"} {
		for _, spec := range core.Planners() {
			alg, topoName := spec.Name, topoName
			t.Run(topoName+"/"+alg, func(t *testing.T) {
				seed := int64(7)
				nwRef := testNetwork(t, topoName, seed)
				reqs := requestPool(t, nwRef.NumNodes(), requests, seed+13)

				ref := core.NewAdmitter(nwRef, plannerFor(t, alg, nwRef))
				want := make([]decision, len(reqs))
				for i, req := range reqs {
					want[i] = captureDecision(ref.Admit(context.Background(), req, nil))
				}
				wantAdmitted, wantRejected := ref.AdmittedCount(), ref.RejectedCount()

				workerCounts := []int{1, 4, 8}
				counters := make(map[int]map[string]uint64)
				for _, workers := range workerCounts {
					nw := testNetwork(t, topoName, seed)
					reg := obs.NewRegistry()
					eng := New(nw, plannerFor(t, alg, nw), Options{
						Workers: workers,
						Obs:     obs.NewAdmissionObs(reg, alg, obs.AdmissionObsOptions{}),
					})
					got := make([]decision, len(reqs))
					for i, req := range reqs {
						got[i] = captureDecision(eng.Admit(req))
					}
					for i := range reqs {
						if !sameDecision(want[i], got[i]) {
							eng.Close()
							t.Fatalf("workers=%d request %d: engine decision diverged from the admitter (admitted %v vs %v)",
								workers, i, got[i].admitted, want[i].admitted)
						}
					}
					if eng.AdmittedCount() != wantAdmitted || eng.RejectedCount() != wantRejected {
						eng.Close()
						t.Fatalf("workers=%d: counts diverged: engine %d/%d, admitter %d/%d",
							workers, eng.AdmittedCount(), eng.RejectedCount(), wantAdmitted, wantRejected)
					}
					if got := eng.obs.AdmittedCount(); got != uint64(wantAdmitted) {
						eng.Close()
						t.Fatalf("workers=%d: admitted counter %d != admitter count %d",
							workers, got, wantAdmitted)
					}
					counters[workers] = reg.CounterValues()
					eng.Close()
				}
				for series, v1 := range counters[1] {
					for _, prefix := range decisionCounterPrefixes {
						if !strings.HasPrefix(series, prefix) {
							continue
						}
						for _, workers := range workerCounts[1:] {
							if counters[workers][series] != v1 {
								t.Errorf("decision counter %s: workers=1 %d, workers=%d %d",
									series, v1, workers, counters[workers][series])
							}
						}
					}
				}
			})
		}
	}
}

// TestEngineDepartRestoresResiduals round-trips admissions through
// Depart and checks the network returns to full capacity.
func TestEngineDepartRestoresResiduals(t *testing.T) {
	nw := testNetwork(t, "geant", 3)
	eng := New(nw, core.NewSPPlanner(), Options{Workers: 1})
	defer eng.Close()

	reqs := requestPool(t, nw.NumNodes(), 40, 17)
	var admitted []int
	for _, req := range reqs {
		if _, err := eng.Admit(req); err == nil {
			admitted = append(admitted, req.ID)
		}
	}
	if len(admitted) == 0 {
		t.Fatal("no request admitted; workload too harsh for the test")
	}
	for _, id := range admitted {
		if _, err := eng.Depart(id); err != nil {
			t.Fatalf("depart %d: %v", id, err)
		}
	}
	if n := eng.LiveCount(); n != 0 {
		t.Fatalf("LiveCount = %d after departing everything", n)
	}
	checkResiduals(t, eng, true)
}

// TestEngineClosed verifies post-Close operations fail with ErrClosed
// and that Close is idempotent.
func TestEngineClosed(t *testing.T) {
	nw := testNetwork(t, "geant", 5)
	eng := New(nw, core.NewSPPlanner(), Options{Workers: 2})
	eng.Close()
	eng.Close() // idempotent
	reqs := requestPool(t, nw.NumNodes(), 1, 5)
	if _, err := eng.Admit(reqs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit after Close: err = %v, want ErrClosed", err)
	}
	if _, err := eng.Depart(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Depart after Close: err = %v, want ErrClosed", err)
	}
	if err := eng.Apply(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close: err = %v, want ErrClosed", err)
	}
}

// checkResiduals asserts every residual lies in [0, capacity]; with
// full=true it additionally requires residual == capacity (an empty
// network), within floating-point tolerance of the release arithmetic.
func checkResiduals(t *testing.T, eng *Engine, full bool) {
	t.Helper()
	const tol = 1e-6
	err := eng.SnapshotState(func(nw *sdn.Network, _ []*core.Solution) {
		for e := 0; e < nw.NumEdges(); e++ {
			eid := graph.EdgeID(e)
			res, cap := nw.ResidualBandwidth(eid), nw.BandwidthCap(eid)
			if res < -tol || res > cap+tol {
				t.Errorf("link %d: residual %v outside [0, %v]", e, res, cap)
			}
			if full && math.Abs(res-cap) > tol {
				t.Errorf("link %d: residual %v != capacity %v after full departure", e, res, cap)
			}
		}
		for _, v := range nw.Servers() {
			res, cap := nw.ResidualCompute(v), nw.ComputeCap(v)
			if res < -tol || res > cap+tol {
				t.Errorf("server %d: residual %v outside [0, %v]", v, res, cap)
			}
			if full && math.Abs(res-cap) > tol {
				t.Errorf("server %d: residual %v != capacity %v after full departure", v, res, cap)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineConcurrentStress hammers one engine from many goroutines —
// concurrent Admit and Depart with maximum plan parallelism — under
// the race detector in CI, then checks the capacity invariants: no
// residual ever leaves [0, capacity], and departing every live session
// restores the pristine capacities. This exercises the optimistic
// commit-validation path: colliding planners force re-plans and
// commit-time rejections. The metrics registry is attached with
// latency sampling on, and a sampler goroutine scrapes it throughout:
// every counter must be monotonically non-decreasing under concurrent
// writers, and once quiesced each latency histogram must satisfy
// sum(buckets) == count and the counters must reconcile with the
// engine's own bookkeeping.
func TestEngineConcurrentStress(t *testing.T) {
	nw := testNetwork(t, "geant", 11)
	model := core.DefaultCostModel(nw.NumNodes())
	planner, err := core.NewCPPlanner(model)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng := New(nw, planner, Options{
		Workers: -1,
		Obs:     obs.NewAdmissionObs(reg, "Online_CP", obs.AdmissionObsOptions{SampleLatency: true}),
	})
	defer eng.Close()

	// Monotonicity sampler: counters may only move up, at any instant,
	// even while planner goroutines and the writer race on them.
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		last := make(map[string]uint64)
		for {
			for series, v := range reg.CounterValues() {
				if v < last[series] {
					t.Errorf("counter %s went backwards: %d -> %d", series, last[series], v)
				}
				last[series] = v
			}
			select {
			case <-samplerStop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	const (
		goroutines = 8
		perG       = 25
	)
	reqs := requestPool(t, nw.NumNodes(), goroutines*perG, 29)

	var (
		mu   sync.Mutex
		live []int
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := reqs[g*perG+i]
				sol, err := eng.Admit(req)
				if err != nil {
					if !core.IsRejection(err) {
						t.Errorf("admit %d: non-rejection error %v", req.ID, err)
					}
					continue
				}
				if sol == nil {
					t.Errorf("admit %d: nil solution without error", req.ID)
					continue
				}
				// Depart every third admission immediately, from the
				// admitting goroutine, so departures interleave with
				// other goroutines' planning and commits.
				if i%3 == 0 {
					if _, derr := eng.Depart(req.ID); derr != nil {
						t.Errorf("depart %d: %v", req.ID, derr)
					}
					continue
				}
				mu.Lock()
				live = append(live, req.ID)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	if got := eng.LiveCount(); got != len(live) {
		t.Fatalf("LiveCount = %d, want %d", got, len(live))
	}
	if eng.AdmittedCount()+eng.RejectedCount() != len(reqs) {
		t.Fatalf("admitted %d + rejected %d != %d requests",
			eng.AdmittedCount(), eng.RejectedCount(), len(reqs))
	}
	checkResiduals(t, eng, false)

	// Drain the survivors concurrently, too.
	var dwg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		dwg.Add(1)
		go func(g int) {
			defer dwg.Done()
			for i := g; i < len(live); i += goroutines {
				if _, derr := eng.Depart(live[i]); derr != nil {
					t.Errorf("drain depart %d: %v", live[i], derr)
				}
			}
		}(g)
	}
	dwg.Wait()
	if n := eng.LiveCount(); n != 0 {
		t.Fatalf("LiveCount = %d after draining", n)
	}
	checkResiduals(t, eng, true)

	close(samplerStop)
	samplerWG.Wait()

	// Quiesced: the registry must reconcile exactly with the engine's
	// bookkeeping, and every histogram must be internally consistent.
	cv := reg.CounterValues()
	if got := cv[`nfv_admitted_total{policy="Online_CP"}`]; got != uint64(eng.AdmittedCount()) {
		t.Errorf("admitted counter %d != engine count %d", got, eng.AdmittedCount())
	}
	var rejected uint64
	for series, v := range cv {
		if strings.HasPrefix(series, "nfv_rejected_total") {
			rejected += v
		}
	}
	if rejected != uint64(eng.RejectedCount()) {
		t.Errorf("rejected counters sum to %d, engine counted %d", rejected, eng.RejectedCount())
	}
	if got := cv[`nfv_departed_total{policy="Online_CP"}`]; got != uint64(eng.AdmittedCount()) {
		t.Errorf("departed counter %d != admitted %d after draining everything",
			got, eng.AdmittedCount())
	}
	gv := reg.GaugeValues()
	if gv[`nfv_live_sessions{policy="Online_CP"}`] != 0 {
		t.Errorf("live gauge = %v after draining", gv[`nfv_live_sessions{policy="Online_CP"}`])
	}
	if gv[`nfv_inflight_admissions{policy="Online_CP"}`] != 0 {
		t.Errorf("inflight gauge = %v with no Admit in flight", gv[`nfv_inflight_admissions{policy="Online_CP"}`])
	}
	for series, s := range reg.Histograms() {
		var buckets uint64
		for _, c := range s.Counts {
			buckets += c
		}
		if buckets != s.Count {
			t.Errorf("histogram %s: sum(buckets)=%d != count=%d", series, buckets, s.Count)
		}
	}
	if s := reg.Histograms()[`nfv_plan_seconds{policy="Online_CP"}`]; s.Count == 0 {
		t.Error("plan latency histogram empty despite SampleLatency")
	}
}
