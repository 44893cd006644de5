package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
)

// TestEngineMetricsInvariantsAfterDeparture pins the lifecycle
// identities the observability layer promises: once every admitted
// session has departed, admitted == departed, the live gauge reads 0,
// and a network-gauge collection shows every residual-utilisation
// gauge back at 0.
func TestEngineMetricsInvariantsAfterDeparture(t *testing.T) {
	nw := testNetwork(t, "geant", 3)
	reg := obs.NewRegistry()
	o := obs.NewAdmissionObs(reg, "SP", obs.AdmissionObsOptions{})
	gauges := obs.NewNetworkGauges(reg, nw, obs.SaturationModel{})
	eng := New(nw, core.NewSPPlanner(), Options{Workers: 1, Obs: o})
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

	// Mid-run sanity: the live gauge tracks the admitter's table and
	// a collection shows load on the network.
	if o.LiveSessions() != float64(len(admitted)) {
		t.Fatalf("live gauge = %v with %d live sessions", o.LiveSessions(), len(admitted))
	}
	if err := eng.SnapshotState(func(nw *sdn.Network, _ []*core.Solution) { gauges.Collect(nw) }); err != nil {
		t.Fatal(err)
	}
	if reg.GaugeValues()["nfv_link_utilization_max"] == 0 {
		t.Fatal("no link utilisation after admissions; collection broken")
	}

	for _, id := range admitted {
		if _, err := eng.Depart(id); err != nil {
			t.Fatalf("depart %d: %v", id, err)
		}
	}

	if o.AdmittedCount() != o.DepartedCount() {
		t.Fatalf("admitted %d != departed %d after full departure",
			o.AdmittedCount(), o.DepartedCount())
	}
	if o.AdmittedCount() != uint64(len(admitted)) {
		t.Fatalf("admitted counter %d, want %d", o.AdmittedCount(), len(admitted))
	}
	if o.LiveSessions() != 0 {
		t.Fatalf("live gauge = %v after full departure", o.LiveSessions())
	}
	if err := eng.SnapshotState(func(nw *sdn.Network, _ []*core.Solution) { gauges.Collect(nw) }); err != nil {
		t.Fatal(err)
	}
	// Residuals are restored by floating-point subtraction, so allow
	// rounding residue but nothing material.
	for series, v := range reg.GaugeValues() {
		utilisation := strings.HasPrefix(series, "nfv_link_utilization") ||
			strings.HasPrefix(series, "nfv_server_utilization")
		if utilisation && v > 1e-9 {
			t.Errorf("%s = %v after full departure, want ~0", series, v)
		}
	}
}

// TestEngineRejectNoPlan pins the planner-refusal half of the reject
// split: a request no planner can place is rejected with ErrNoPlan (and
// not ErrCommitConflict), still satisfies core.IsRejection, and counts
// under a specific non-conflict reason.
func TestEngineRejectNoPlan(t *testing.T) {
	nw := testNetwork(t, "geant", 5)
	reg := obs.NewRegistry()
	eng := New(nw, core.NewSPPlanner(), Options{
		Workers: 2,
		Obs:     obs.NewAdmissionObs(reg, "SP", obs.AdmissionObsOptions{}),
	})
	defer eng.Close()

	req := requestPool(t, nw.NumNodes(), 1, 5)[0]
	req.BandwidthMbps = 1e12 // no link can carry this
	_, err := eng.Admit(req)
	if err == nil {
		t.Fatal("impossible request admitted")
	}
	if !errors.Is(err, ErrNoPlan) {
		t.Fatalf("err = %v, want ErrNoPlan in the chain", err)
	}
	if errors.Is(err, ErrCommitConflict) {
		t.Fatalf("err = %v must not carry ErrCommitConflict", err)
	}
	if !core.IsRejection(err) {
		t.Fatalf("err = %v must satisfy core.IsRejection", err)
	}
	if reason := core.RejectReason(err); reason == "" || reason == obs.ReasonCommitConflict {
		t.Fatalf("RejectReason = %q, want a specific planner-refusal reason", reason)
	}
	var rejected uint64
	for series, v := range reg.CounterValues() {
		if strings.HasPrefix(series, "nfv_rejected_total") {
			rejected += v
		}
	}
	if rejected != 1 {
		t.Fatalf("rejected counters sum to %d, want 1", rejected)
	}
}

// frozenViewPlanner deterministically reproduces an optimistic-
// concurrency loss with a single in-flight Admit. It plans against a
// pristine snapshot taken at construction instead of the view it is
// handed, so once the live residuals drain its plans fail commit
// validation; and it slips a writer-side operation (an empty Apply)
// between plan and commit — exactly the interleaving a concurrent
// commit produces — so the failure is classified as a conflict rather
// than a planner overcommit.
type frozenViewPlanner struct {
	inner  core.Planner
	frozen *sdn.Network
	eng    *Engine
}

func (p *frozenViewPlanner) Name() string { return "FrozenView" }

func (p *frozenViewPlanner) Plan(
	ctx context.Context, _ *sdn.Network, req *multicast.Request, arena *core.PlanArena,
) (*core.Solution, error) {
	if err := p.eng.Apply(); err != nil {
		return nil, err
	}
	return p.inner.Plan(ctx, p.frozen, req, arena)
}

// TestEngineRejectCommitConflict pins the optimistic-concurrency half
// of the reject split: a plan that keeps validating against stale
// residuals fails commit, re-plans once, fails again, and surfaces
// ErrCommitConflict — counted under the commit_conflict reason with
// the conflict/re-plan counters moving in lockstep.
func TestEngineRejectCommitConflict(t *testing.T) {
	nw := testNetwork(t, "geant", 7)
	planner := &frozenViewPlanner{inner: core.NewSPPlanner(), frozen: nw.Clone()}
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(8)
	eng := New(nw, planner, Options{
		Workers: 2,
		Obs:     obs.NewAdmissionObs(reg, "FrozenView", obs.AdmissionObsOptions{Events: ring}),
	})
	defer eng.Close()
	planner.eng = eng

	base := requestPool(t, nw.NumNodes(), 1, 7)[0]
	base.BandwidthMbps = 900 // drains the tightest link (caps start at 1000) fast

	var conflictErr error
	for i := 0; i < 200 && conflictErr == nil; i++ {
		req := base.Clone()
		req.ID = 1000 + i
		if _, err := eng.Admit(req); err != nil {
			conflictErr = err
		}
	}
	if conflictErr == nil {
		t.Fatal("frozen-view planner never hit a commit conflict")
	}
	if !errors.Is(conflictErr, ErrCommitConflict) {
		t.Fatalf("err = %v, want ErrCommitConflict in the chain", conflictErr)
	}
	if errors.Is(conflictErr, ErrNoPlan) {
		t.Fatalf("err = %v must not carry ErrNoPlan", conflictErr)
	}
	if !core.IsRejection(conflictErr) {
		t.Fatalf("err = %v must satisfy core.IsRejection", conflictErr)
	}
	if reason := core.RejectReason(conflictErr); reason != obs.ReasonCommitConflict {
		t.Fatalf("RejectReason = %q, want %q", reason, obs.ReasonCommitConflict)
	}

	cv := reg.CounterValues()
	if got := cv[`nfv_rejected_total{policy="FrozenView",reason="commit_conflict"}`]; got != 1 {
		t.Fatalf("commit_conflict rejections = %d, want 1 (all: %v)", got, cv)
	}
	// One exhausted admission = two failed commits and one re-plan.
	if got := cv[`nfv_commit_conflicts_total{policy="FrozenView"}`]; got != 2 {
		t.Fatalf("conflict counter = %d, want 2", got)
	}
	if got := cv[`nfv_replans_total{policy="FrozenView"}`]; got != 1 {
		t.Fatalf("replan counter = %d, want 1", got)
	}

	// The event tail must show the conflict lifecycle in order:
	// conflict, replanned, (planned,) conflict, rejected.
	var types []string
	for _, ev := range ring.Events() {
		types = append(types, string(ev.Type))
	}
	tail := strings.Join(types, ",")
	if !strings.Contains(tail, "commit_conflict,replanned") ||
		!strings.HasSuffix(tail, "commit_conflict,rejected") {
		t.Fatalf("event tail missing conflict lifecycle: %s", tail)
	}
}
