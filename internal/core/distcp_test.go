package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/nfv"
	"nfvmcast/internal/sdn"
)

// lenientModel prices resources exponentially but never trips the
// admission thresholds — isolating feasibility mechanics from
// threshold (a)/(b) rejections in the split tests below.
func lenientModel() CostModel {
	return CostModel{Alpha: 1.5, Beta: 1.5, SigmaV: 1e9, SigmaE: 1e9}
}

func TestDistCPAdmitsAndDelivers(t *testing.T) {
	nw := testNetwork(t, 40, 7)
	p, err := NewDistCPPlanner(DefaultCostModel(nw.NumNodes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for seed := int64(0); seed < 10; seed++ {
		req := testRequest(t, nw, 300+seed)
		sol, perr := p.Plan(context.Background(), nw, req, nil)
		if perr != nil {
			if !IsRejection(perr) {
				t.Fatalf("seed %d: %v", seed, perr)
			}
			continue
		}
		admitted++
		if derr := sol.Tree.CheckDelivery(nw.Graph()); derr != nil {
			t.Fatalf("seed %d: delivery: %v", seed, derr)
		}
		if len(sol.Servers) < 1 || len(sol.Servers) > 2 {
			t.Fatalf("seed %d: %d servers, split limit 2", seed, len(sol.Servers))
		}
		if sol.SelectionCost < 0 || sol.OperationalCost < 0 {
			t.Fatalf("seed %d: negative cost (%v, %v)", seed, sol.SelectionCost, sol.OperationalCost)
		}
		// Per-segment demands must partition the chain's full demand and
		// align position-for-position with the server tuple.
		if sol.Tree.ServerDemands != nil {
			if len(sol.Tree.ServerDemands) != len(sol.Servers) {
				t.Fatalf("seed %d: %d demands for %d servers",
					seed, len(sol.Tree.ServerDemands), len(sol.Servers))
			}
			var sum float64
			for _, d := range sol.Tree.ServerDemands {
				sum += d
			}
			if diff := sum - req.ComputeDemandMHz(); diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("seed %d: segment demands sum %v != chain demand %v",
					seed, sum, req.ComputeDemandMHz())
			}
		}
		// The plan must be committable as-is on the residual network.
		if aerr := nw.CanAllocate(AllocationFor(req, sol.Tree)); aerr != nil {
			t.Fatalf("seed %d: plan not allocatable: %v", seed, aerr)
		}
	}
	if admitted == 0 {
		t.Fatal("fixture admitted nothing; tighten the seeds")
	}
}

// TestDistCPSplitBeatsConsolidation drains every server below the full
// chain demand but above each single-segment demand: consolidated
// Online_CP must reject on compute exhaustion while Dist_CP still
// admits by splitting the chain across two hosts.
func TestDistCPSplitBeatsConsolidation(t *testing.T) {
	nw := testNetwork(t, 40, 7)
	req := &multicast.Request{
		ID: 1, Source: 0, Destinations: []graph.NodeID{5, 9, 21},
		BandwidthMbps: 100,
		Chain:         nfv.MustChain(nfv.NAT, nfv.Firewall),
	}
	funcs := req.Chain.Functions()
	maxSeg := 0.0
	for _, f := range funcs {
		if d := f.DemandMHz(req.BandwidthMbps); d > maxSeg {
			maxSeg = d
		}
	}
	full := req.ComputeDemandMHz()
	if maxSeg+1 >= full {
		t.Fatalf("fixture chain cannot demonstrate a split win (maxSeg %v, full %v)", maxSeg, full)
	}
	// Leave exactly maxSeg+1 MHz on every server.
	for _, v := range nw.Servers() {
		if drain := nw.ResidualCompute(v) - (maxSeg + 1); drain > 0 {
			if err := nw.Allocate(sdn.Allocation{Servers: []sdn.ServerShare{{Node: v, MHz: drain}}}); err != nil {
				t.Fatalf("drain server %d: %v", v, err)
			}
		}
	}

	cp, err := NewCPPlanner(lenientModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Plan(context.Background(), nw, req, nil); !errors.Is(err, ErrComputeExhausted) {
		t.Fatalf("consolidated plan err = %v, want ErrComputeExhausted", err)
	}

	dist, err := NewDistCPPlanner(lenientModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := dist.Plan(context.Background(), nw, req, nil)
	if err != nil {
		t.Fatalf("distributed plan: %v", err)
	}
	if len(sol.Servers) != 2 {
		t.Fatalf("servers = %v, want a 2-way split", sol.Servers)
	}
	if derr := sol.Tree.CheckDelivery(nw.Graph()); derr != nil {
		t.Fatalf("delivery: %v", derr)
	}
	if aerr := nw.Allocate(AllocationFor(req, sol.Tree)); aerr != nil {
		t.Fatalf("allocate split plan: %v", aerr)
	}
}

// TestDistCPDeterministic pins the (cost, enumeration-index) tie-break:
// two fresh planners over clone networks must produce byte-identical
// solutions for an identical request stream, including after partial
// allocation drift.
func TestDistCPDeterministic(t *testing.T) {
	nwA := testNetwork(t, 40, 11)
	nwB := nwA.Clone()
	mk := func() *DistCPPlanner {
		p, err := NewDistCPPlanner(DefaultCostModel(nwA.NumNodes()), 3)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pA, pB := mk(), mk()
	for seed := int64(0); seed < 12; seed++ {
		req := testRequest(t, nwA, 500+seed)
		solA, errA := pA.Plan(context.Background(), nwA, req, nil)
		solB, errB := pB.Plan(context.Background(), nwB, req, nil)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: decision diverged: %v vs %v", seed, errA, errB)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Fatalf("seed %d: rejection text diverged: %q vs %q", seed, errA, errB)
			}
			continue
		}
		if !reflect.DeepEqual(solA.Servers, solB.Servers) ||
			solA.SelectionCost != solB.SelectionCost ||
			!reflect.DeepEqual(solA.Tree.Hops(), solB.Tree.Hops()) ||
			!reflect.DeepEqual(solA.Tree.ServerDemands, solB.Tree.ServerDemands) {
			t.Fatalf("seed %d: solutions diverged", seed)
		}
		// Commit on both so later plans see identical residual drift.
		if err := nwA.Allocate(AllocationFor(req, solA.Tree)); err != nil {
			t.Fatal(err)
		}
		if err := nwB.Allocate(AllocationFor(req, solB.Tree)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistCPFastRejectMatchesPlan drives the planner into each cheap
// rejection and asserts FastReject's error text is byte-identical to
// the full plan's — the FastRejecter contract the engine relies on —
// and that FastReject stays silent when the full plan admits.
func TestDistCPFastRejectMatchesPlan(t *testing.T) {
	nw := testNetwork(t, 30, 3)
	p, err := NewDistCPPlanner(DefaultCostModel(nw.NumNodes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, req *multicast.Request) {
		t.Helper()
		fast := p.FastReject(nw, req)
		_, full := p.Plan(context.Background(), nw, req, nil)
		if fast == nil {
			if full != nil && !errors.Is(full, ErrRejected) {
				t.Fatalf("%s: full plan failed hard: %v", label, full)
			}
			return
		}
		if full == nil {
			t.Fatalf("%s: FastReject %q but the full plan admitted", label, fast)
		}
		if fast.Error() != full.Error() {
			t.Fatalf("%s: FastReject %q != full plan %q", label, fast, full)
		}
	}

	check("admissible", testRequest(t, nw, 42))
	check("bad input", &multicast.Request{ID: 2, Source: -1, Destinations: []graph.NodeID{1}, BandwidthMbps: 10, Chain: nfv.MustChain(nfv.NAT)})

	// Compute exhaustion: drain every server to (almost) nothing.
	drained := nw.Clone()
	for _, v := range drained.Servers() {
		if r := drained.ResidualCompute(v) - 0.5; r > 0 {
			if err := drained.Allocate(sdn.Allocation{Servers: []sdn.ServerShare{{Node: v, MHz: r}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	req := testRequest(t, nw, 42)
	fast := p.FastReject(drained, req)
	_, full := p.Plan(context.Background(), drained, req, nil)
	if fast == nil || full == nil || fast.Error() != full.Error() {
		t.Fatalf("exhausted: FastReject %v, full plan %v — must both reject identically", fast, full)
	}
	if !errors.Is(full, ErrComputeExhausted) {
		t.Fatalf("exhausted: %v, want ErrComputeExhausted", full)
	}
}

// TestDistCPSplitLimitOne degenerates to consolidated placement: every
// solution uses exactly one server and matches CPPlanner's admission
// decision (the trees may differ in shape, never in feasibility).
func TestDistCPSplitLimitOne(t *testing.T) {
	nw := testNetwork(t, 40, 9)
	dist, err := NewDistCPPlanner(DefaultCostModel(nw.NumNodes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		req := testRequest(t, nw, 700+seed)
		sol, perr := dist.Plan(context.Background(), nw, req, nil)
		if perr != nil {
			if !IsRejection(perr) {
				t.Fatalf("seed %d: %v", seed, perr)
			}
			continue
		}
		if len(sol.Servers) != 1 {
			t.Fatalf("seed %d: servers = %v, want exactly one at split limit 1", seed, sol.Servers)
		}
	}
}

func TestNewDistCPPlannerValidation(t *testing.T) {
	if _, err := NewDistCPPlanner(CostModel{}, 2); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := NewDistCPPlanner(DefaultCostModel(40), 0); err == nil {
		t.Fatal("split limit 0 accepted")
	}
}

// TestForEachComposition pins the lexicographic enumeration order the
// determinism tie-break depends on.
func TestForEachComposition(t *testing.T) {
	var got []string
	err := forEachComposition(4, 2, func(parts []int) error {
		got = append(got, fmt.Sprint(parts))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"[1 3]", "[2 2]", "[3 1]"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compositions(4,2) = %v, want %v", got, want)
	}
	n := 0
	if err := forEachComposition(0, 1, func(parts []int) error {
		if len(parts) != 0 {
			t.Fatalf("empty chain composition = %v", parts)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("empty chain yielded %d compositions, want 1", n)
	}
}
