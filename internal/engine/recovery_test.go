package engine

import (
	"context"
	"errors"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/obs"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// hottestNonBridgeLink picks the deterministic failure target of the
// recovery tests: the most utilised link whose loss does not partition
// the network.
func hottestNonBridgeLink(t *testing.T, nw *sdn.Network) graph.EdgeID {
	t.Helper()
	isBridge := make(map[graph.EdgeID]bool)
	for _, e := range graph.Bridges(nw.Graph()) {
		isBridge[e] = true
	}
	var hot graph.EdgeID = -1
	var hotUtil float64
	for e := 0; e < nw.NumEdges(); e++ {
		if u := nw.LinkUtilization(e); u > hotUtil && !isBridge[e] {
			hot, hotUtil = e, u
		}
	}
	if hot == -1 {
		t.Fatal("no non-bridge link carries load")
	}
	return hot
}

// busiestServer returns the most utilised server.
func busiestServer(t *testing.T, nw *sdn.Network) graph.NodeID {
	t.Helper()
	var best graph.NodeID = -1
	var bestUtil float64
	for _, v := range nw.Servers() {
		if u := nw.ServerUtilization(v); u > bestUtil {
			best, bestUtil = v, u
		}
	}
	if best == -1 {
		t.Fatal("no server carries load")
	}
	return best
}

// TestRecoveryDeterminismOracle pins the tentpole's determinism claim:
// a fixed failure schedule (hottest non-bridge link down, busiest
// server down, link restored) yields byte-identical recovery outcomes
// — session order, modes, costs, attempt counts — across engine worker
// counts, because recovery always runs sequentially on the writer in
// ascending request-ID order. Live-session and shed counts ride along.
func TestRecoveryDeterminismOracle(t *testing.T) {
	const requests = 80
	seed := int64(11)

	type runResult struct {
		fingerprints []string
		live         int
		admitted     int
		shed         int
	}
	results := make(map[int]runResult)
	for _, workers := range []int{1, 4, 8} {
		nw := testNetwork(t, "geant", seed)
		reqs := requestPool(t, nw.NumNodes(), requests, seed+13)
		pol := recov.DefaultPolicy()
		eng := New(nw, plannerFor(t, "Online_CP", nw), Options{
			Workers:  workers,
			Recovery: &pol,
		})
		for _, req := range reqs {
			_, _ = eng.Admit(req)
		}

		// The failure schedule is computed from the post-admission
		// state, which the admission oracle pins to be identical across
		// worker counts — so every run fails the same resources.
		hot := hottestNonBridgeLink(t, nw)
		srv := busiestServer(t, nw)

		var res runResult
		for _, step := range []Mutation{
			{Kind: LinkState, ID: hot, Up: false},
			{Kind: ServerState, ID: srv, Up: false},
			{Kind: LinkState, ID: hot, Up: true},
		} {
			if err := eng.Apply(step); err != nil {
				t.Fatalf("workers=%d: apply: %v", workers, err)
			}
			rep := eng.LastRecovery()
			if rep == nil {
				t.Fatalf("workers=%d: recovery did not run", workers)
			}
			res.fingerprints = append(res.fingerprints, rep.Fingerprint())
			res.shed += rep.Shed
		}
		res.live = eng.LiveCount()
		res.admitted = eng.AdmittedCount()
		eng.Close()
		results[workers] = res
	}

	base := results[1]
	if base.fingerprints[0] == "" {
		t.Fatal("link failure affected no session; schedule too weak to pin determinism")
	}
	for _, workers := range []int{4, 8} {
		got := results[workers]
		for i := range base.fingerprints {
			if got.fingerprints[i] != base.fingerprints[i] {
				t.Errorf("workers=%d step %d: recovery fingerprint diverged\n--- workers=1\n%s--- workers=%d\n%s",
					workers, i, base.fingerprints[i], workers, got.fingerprints[i])
			}
		}
		if got.live != base.live || got.admitted != base.admitted || got.shed != base.shed {
			t.Errorf("workers=%d: live/admitted/shed = %d/%d/%d, want %d/%d/%d",
				workers, got.live, got.admitted, got.shed, base.live, base.admitted, base.shed)
		}
	}
}

// TestRecoveryRepairCostBound checks the γ rule: every local repair's
// new tree costs at most Gamma times the damaged one, and repaired
// sessions stay live (a later Depart releases the replacement bundle
// and the network returns to full capacity).
func TestRecoveryRepairCostBound(t *testing.T) {
	nw := testNetwork(t, "geant", 5)
	pol := recov.Policy{Gamma: 1.25, RetryBudget: 1}
	eng := New(nw, plannerFor(t, "Online_CP", nw), Options{Workers: 1, Recovery: &pol})
	defer eng.Close()

	var admitted []int
	for _, req := range requestPool(t, nw.NumNodes(), 80, 23) {
		if _, err := eng.Admit(req); err == nil {
			admitted = append(admitted, req.ID)
		}
	}
	hot := hottestNonBridgeLink(t, nw)
	if err := eng.Apply(Mutation{Kind: LinkState, ID: hot, Up: false}); err != nil {
		t.Fatal(err)
	}
	rep := eng.LastRecovery()
	if rep == nil || len(rep.Outcomes) == 0 {
		t.Fatal("failure affected no session")
	}
	for _, out := range rep.Outcomes {
		if out.Mode != recov.ModeLocal {
			continue
		}
		if out.NewCost > pol.Gamma*out.OldCost {
			t.Errorf("session %d: local repair cost %.2f exceeds γ bound %.2f",
				out.RequestID, out.NewCost, pol.Gamma*out.OldCost)
		}
		if out.Solution == nil || len(out.Solution.Servers) != 1 {
			t.Errorf("session %d: local repair must pin the single-server placement", out.RequestID)
		}
	}

	// Repaired sessions depart cleanly; shed ones are already gone.
	shed := make(map[int]bool)
	for _, id := range rep.Degraded() {
		shed[id] = true
	}
	for _, id := range admitted {
		if shed[id] {
			if _, err := eng.Depart(id); !errors.Is(err, core.ErrUnknownRequest) {
				t.Errorf("departing shed session %d: got %v, want ErrUnknownRequest", id, err)
			}
			continue
		}
		if _, err := eng.Depart(id); err != nil {
			t.Errorf("departing session %d after recovery: %v", id, err)
		}
	}
	if n := eng.LiveCount(); n != 0 {
		t.Fatalf("LiveCount = %d after departing everything", n)
	}
	for e := 0; e < nw.NumEdges(); e++ {
		if diff := nw.BandwidthCap(e) - nw.ResidualBandwidth(e); diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("link %d: residual %.6f != capacity %.6f after full departure",
				e, nw.ResidualBandwidth(e), nw.BandwidthCap(e))
		}
	}
}

// TestRecoveryShedsWithErrDegraded fails every server: nothing can be
// re-hosted, so recovery must shed every live session deterministically
// with ErrDegraded, and the shed counter must agree.
func TestRecoveryShedsWithErrDegraded(t *testing.T) {
	nw := testNetwork(t, "waxman", 9)
	pol := recov.DefaultPolicy()
	reg := obs.NewRegistry()
	eng := New(nw, plannerFor(t, "Online_CP", nw), Options{
		Workers:  1,
		Recovery: &pol,
		Obs:      obs.NewAdmissionObs(reg, "Online_CP", obs.AdmissionObsOptions{}),
	})
	defer eng.Close()

	for _, req := range requestPool(t, nw.NumNodes(), 40, 31) {
		_, _ = eng.Admit(req)
	}
	before := eng.LiveCount()
	if before == 0 {
		t.Fatal("no session admitted")
	}
	var wipe []Mutation
	for _, v := range nw.Servers() {
		wipe = append(wipe, Mutation{Kind: ServerState, ID: v, Up: false})
	}
	if err := eng.Apply(wipe...); err != nil {
		t.Fatal(err)
	}
	rep := eng.LastRecovery()
	if rep == nil {
		t.Fatal("recovery did not run")
	}
	if rep.Shed != before || rep.Repaired() != 0 {
		t.Fatalf("shed %d / repaired %d, want %d / 0", rep.Shed, rep.Repaired(), before)
	}
	for _, out := range rep.Outcomes {
		if !errors.Is(out.Err, recov.ErrDegraded) {
			t.Errorf("session %d: shed outcome error %v does not match ErrDegraded", out.RequestID, out.Err)
		}
	}
	if n := eng.LiveCount(); n != 0 {
		t.Fatalf("LiveCount = %d after shedding everything", n)
	}
	counters := reg.CounterValues()
	if got := counters[`nfv_shed_total{policy="Online_CP"}`]; got != uint64(before) {
		t.Errorf("nfv_shed_total = %d, want %d", got, before)
	}
	if gauges := reg.GaugeValues(); gauges[`nfv_live_sessions{policy="Online_CP"}`] != 0 {
		t.Errorf("live gauge = %v after shedding everything", gauges[`nfv_live_sessions{policy="Online_CP"}`])
	}
}

// TestAdmitContextCancellation checks the context satellite: a
// canceled Admit leaves the network untouched and is not counted as a
// rejection, in both sequential and concurrent mode.
func TestAdmitContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		nw := testNetwork(t, "geant", 13)
		eng := New(nw, plannerFor(t, "Online_CP", nw), Options{Workers: workers})
		reqs := requestPool(t, nw.NumNodes(), 3, 41)

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.AdmitContext(ctx, reqs[0]); !core.IsCanceled(err) {
			t.Fatalf("workers=%d: canceled admit returned %v, want IsCanceled", workers, err)
		}
		if eng.RejectedCount() != 0 {
			t.Fatalf("workers=%d: canceled admit counted as rejection", workers)
		}
		for e := 0; e < nw.NumEdges(); e++ {
			if nw.ResidualBandwidth(e) != nw.BandwidthCap(e) {
				t.Fatalf("workers=%d: canceled admit moved residuals", workers)
			}
		}
		// A live context admits normally afterwards.
		if _, err := eng.AdmitContext(context.Background(), reqs[1]); err != nil {
			t.Fatalf("workers=%d: live-context admit failed: %v", workers, err)
		}
		eng.Close()
	}
}
