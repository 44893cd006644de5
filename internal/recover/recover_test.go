package recover

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// harness builds a deterministic Waxman network with an Online_CP
// admitter carrying a handful of live sessions, and returns the edge
// of the busiest live allocation so tests can fail something that is
// guaranteed to affect a session.
type harness struct {
	nw  *sdn.Network
	adm *core.Admitter
}

func newHarness(t *testing.T, n int, seed int64, sessions int) *harness {
	t.Helper()
	topo, err := topology.WaxmanDegree(n, topology.DefaultAvgDegree, 0.14, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := core.NewCPPlanner(core.DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	cp := core.NewAdmitter(nw, planner)
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), seed+2)
	if err != nil {
		t.Fatal(err)
	}
	for cp.LiveCount() < sessions {
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		_, _ = cp.Admit(context.Background(), req, nil)
	}
	return &harness{nw: nw, adm: cp}
}

// failBusyLink marks the most utilised non-bridge link down and
// returns it.
func (h *harness) failBusyLink(t *testing.T) graph.EdgeID {
	t.Helper()
	isBridge := make(map[graph.EdgeID]bool)
	for _, e := range graph.Bridges(h.nw.Graph()) {
		isBridge[e] = true
	}
	var hot graph.EdgeID = -1
	var hotUtil float64
	for e := 0; e < h.nw.NumEdges(); e++ {
		if u := h.nw.LinkUtilization(e); u > hotUtil && !isBridge[e] {
			hot, hotUtil = e, u
		}
	}
	if hot == -1 {
		t.Fatal("no non-bridge link carries load")
	}
	if err := h.nw.SetLinkUp(hot, false); err != nil {
		t.Fatal(err)
	}
	return hot
}

func TestRecoverRepairsAffectedSessions(t *testing.T) {
	h := newHarness(t, 60, 7, 25)
	h.failBusyLink(t)

	before := h.adm.LiveCount()
	affected := h.adm.AffectedLive()
	if len(affected) == 0 {
		t.Fatal("failure affected no session")
	}
	pol := DefaultPolicy()
	rep, err := New(h.adm, nil, pol).Recover(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != len(affected) {
		t.Fatalf("outcomes %d, affected %d", len(rep.Outcomes), len(affected))
	}
	if rep.Local+rep.Replanned+rep.Shed != len(rep.Outcomes) {
		t.Fatal("mode counters do not partition the outcomes")
	}
	if h.adm.LiveCount() != before-rep.Shed {
		t.Fatalf("live %d, want %d - %d shed", h.adm.LiveCount(), before, rep.Shed)
	}
	// Nothing may remain on the failed resource, and every repaired
	// session must respect the γ acceptance bound when local.
	if left := h.adm.AffectedLive(); len(left) != 0 {
		t.Fatalf("sessions still on failed resources after recovery: %v", left)
	}
	for i, out := range rep.Outcomes {
		if i > 0 && out.RequestID <= rep.Outcomes[i-1].RequestID {
			t.Fatal("outcomes not in ascending request-ID order")
		}
		switch out.Mode {
		case ModeLocal:
			if out.NewCost > pol.Gamma*out.OldCost {
				t.Errorf("session %d: local repair %.2f > γ×%.2f", out.RequestID, out.NewCost, out.OldCost)
			}
			if out.Solution == nil || out.Err != nil {
				t.Errorf("session %d: repaired outcome malformed", out.RequestID)
			}
		case ModeShed:
			if !errors.Is(out.Err, ErrDegraded) || out.Solution != nil {
				t.Errorf("session %d: shed outcome malformed: %v", out.RequestID, out.Err)
			}
		}
	}
}

// TestZeroGammaForcesReplan pins the benchmark baseline: Gamma <= 0
// disables local repair, so every repaired session goes through the
// full planner.
func TestZeroGammaForcesReplan(t *testing.T) {
	h := newHarness(t, 60, 7, 25)
	h.failBusyLink(t)
	rep, err := New(h.adm, nil, Policy{Gamma: 0, RetryBudget: 1}).Recover(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Local != 0 {
		t.Fatalf("γ=0 produced %d local repairs", rep.Local)
	}
	if rep.Replanned == 0 {
		t.Fatal("γ=0 re-planned nothing; scenario too weak")
	}
	for _, out := range rep.Outcomes {
		if out.Mode == ModeLocal {
			t.Fatalf("session %d repaired locally under γ=0", out.RequestID)
		}
	}
}

// TestFingerprintDeterminism runs the identical scenario twice and
// requires byte-identical reports.
func TestFingerprintDeterminism(t *testing.T) {
	run := func() string {
		h := newHarness(t, 60, 11, 25)
		h.failBusyLink(t)
		rep, err := New(h.adm, nil, DefaultPolicy()).Recover(context.Background(), core.NewPlanArena())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Fingerprint()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("empty fingerprint; scenario too weak")
	}
	if a != b {
		t.Fatalf("identical scenarios diverged:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestShedWhenUnhostable drops every server: nothing can host the
// chains, so every affected session must shed with ErrDegraded.
func TestShedWhenUnhostable(t *testing.T) {
	h := newHarness(t, 60, 7, 25)
	for _, v := range h.nw.Servers() {
		if err := h.nw.SetServerUp(v, false); err != nil {
			t.Fatal(err)
		}
	}
	affected := h.adm.AffectedLive()
	if len(affected) != h.adm.LiveCount() {
		t.Fatalf("server wipe affected %d of %d sessions", len(affected), h.adm.LiveCount())
	}
	rep, err := New(h.adm, nil, DefaultPolicy()).Recover(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != len(affected) || rep.Repaired() != 0 {
		t.Fatalf("shed %d repaired %d, want %d / 0", rep.Shed, rep.Repaired(), len(affected))
	}
	if h.adm.LiveCount() != 0 {
		t.Fatalf("live %d after shedding everything", h.adm.LiveCount())
	}
	if got := rep.Degraded(); len(got) != len(affected) {
		t.Fatalf("Degraded lists %d ids, want %d", len(got), len(affected))
	}
}

// TestRecoverCanceledBetweenSessions checks the cancellation contract:
// a context canceled before the pass touches anything repairs nothing
// and leaves every damaged session live for a later pass.
func TestRecoverCanceledBetweenSessions(t *testing.T) {
	h := newHarness(t, 60, 7, 25)
	h.failBusyLink(t)
	affected := h.adm.AffectedLive()
	before := h.adm.LiveCount()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := New(h.adm, nil, DefaultPolicy()).Recover(ctx, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled pass returned %v", err)
	}
	if len(rep.Outcomes) != 0 {
		t.Fatalf("canceled pass produced %d outcomes", len(rep.Outcomes))
	}
	if h.adm.LiveCount() != before {
		t.Fatal("canceled pass changed the live table")
	}
	if got := h.adm.AffectedLive(); len(got) != len(affected) {
		t.Fatal("canceled pass changed the affected set")
	}
	// The interrupted pass can be finished later.
	rep, err = New(h.adm, nil, DefaultPolicy()).Recover(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != len(affected) {
		t.Fatalf("follow-up pass handled %d of %d sessions", len(rep.Outcomes), len(affected))
	}
}
