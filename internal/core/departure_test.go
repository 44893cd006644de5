package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
)

func TestDepartReleasesResources(t *testing.T) {
	nw := testNetwork(t, 40, 5)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, nw, 9)
	sol, err := cp.Admit(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.LiveCount() != 1 {
		t.Fatalf("LiveCount = %d, want 1", cp.LiveCount())
	}
	got, err := cp.Depart(req.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != sol {
		t.Fatal("Depart returned a different solution")
	}
	if cp.LiveCount() != 0 {
		t.Fatalf("LiveCount = %d after departure, want 0", cp.LiveCount())
	}
	const tol = 1e-6
	for e := 0; e < nw.NumEdges(); e++ {
		if d := nw.ResidualBandwidth(e) - nw.BandwidthCap(e); d < -tol || d > tol {
			t.Fatalf("link %d not restored after departure", e)
		}
	}
	for _, v := range nw.Servers() {
		if d := nw.ResidualCompute(v) - nw.ComputeCap(v); d < -tol || d > tol {
			t.Fatalf("server %d not restored after departure", v)
		}
	}
	// Second departure of the same request fails.
	if _, err := cp.Depart(req.ID); !errors.Is(err, ErrUnknownRequest) {
		t.Fatalf("double departure = %v, want ErrUnknownRequest", err)
	}
}

func TestDepartUnknownRequest(t *testing.T) {
	nw := testNetwork(t, 30, 6)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Depart(42); !errors.Is(err, ErrUnknownRequest) {
		t.Fatalf("unknown departure = %v, want ErrUnknownRequest", err)
	}
	sp := NewAdmitter(nw, NewSPPlanner())
	if _, err := sp.Depart(42); !errors.Is(err, ErrUnknownRequest) {
		t.Fatalf("SP unknown departure = %v, want ErrUnknownRequest", err)
	}
	st := NewAdmitter(nw, NewSPStaticPlanner())
	if _, err := st.Depart(42); !errors.Is(err, ErrUnknownRequest) {
		t.Fatalf("SPStatic unknown departure = %v, want ErrUnknownRequest", err)
	}
}

// TestChurnSteadyState runs a long arrival/departure churn and checks
// the system reaches a steady state where capacity invariants hold
// and admission keeps succeeding (departures free enough room).
func TestChurnSteadyState(t *testing.T) {
	nw := testNetwork(t, 50, 12)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	const lifetime = 30 // each admitted session departs 30 arrivals later
	type liveEntry struct {
		id       int
		departAt int
	}
	var live []liveEntry
	lateAdmits := 0
	for i := 0; i < 600; i++ {
		// Departures due now.
		keep := live[:0]
		for _, le := range live {
			if le.departAt <= i {
				if _, err := cp.Depart(le.id); err != nil {
					t.Fatalf("arrival %d: depart %d: %v", i, le.id, err)
				}
			} else {
				keep = append(keep, le)
			}
		}
		live = keep
		req, gerr := gen.Next()
		if gerr != nil {
			t.Fatal(gerr)
		}
		if _, aerr := cp.Admit(context.Background(), req, nil); aerr == nil {
			live = append(live, liveEntry{id: req.ID, departAt: i + lifetime})
			if i >= 400 {
				lateAdmits++
			}
		} else if !IsRejection(aerr) {
			t.Fatalf("arrival %d: %v", i, aerr)
		}
		if cp.LiveCount() != len(live) {
			t.Fatalf("arrival %d: LiveCount %d != tracked %d", i, cp.LiveCount(), len(live))
		}
	}
	if lateAdmits == 0 {
		t.Fatal("no admissions in steady state; departures not freeing capacity")
	}
	for e := 0; e < nw.NumEdges(); e++ {
		if r := nw.ResidualBandwidth(e); r < -1e-6 || r > nw.BandwidthCap(e)+1e-6 {
			t.Fatalf("link %d residual %v out of bounds", e, r)
		}
	}
}

func TestReplaceSwapsRecordedAllocation(t *testing.T) {
	nw := testNetwork(t, 50, 33)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, nw, 34)
	if _, err := cp.Admit(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	sessions := cp.Admitted()
	reopt, _, _, err := Reoptimize(nw, sessions, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Replace(req.ID, reopt[0]); err != nil {
		t.Fatal(err)
	}
	// Departure after replacement must restore pristine residuals.
	if _, err := cp.Depart(req.ID); err != nil {
		t.Fatal(err)
	}
	const tol = 1e-4
	for e := 0; e < nw.NumEdges(); e++ {
		if d := nw.ResidualBandwidth(e) - nw.BandwidthCap(e); d < -tol || d > tol {
			t.Fatalf("link %d not pristine after replace+depart", e)
		}
	}
	// Error paths.
	if err := cp.Replace(999, reopt[0]); err == nil {
		t.Fatal("replace of unknown session accepted")
	}
	if _, err := cp.Admit(context.Background(), testRequest(t, nw, 35), nil); err != nil {
		t.Fatal(err)
	}
	id := cp.Admitted()[0].Request.ID // the departed session is no longer retained
	if err := cp.Replace(id, nil); err == nil {
		t.Fatal("nil replacement accepted")
	}
}

// TestAdmitterRetainsOnlyLiveSessions cycles 50,000 sessions through
// commit→depart (and restore→drop, the WAL replay pair) on one admitter.
// Each carries its own 2 KiB of payload, so retaining departed sessions
// — as the admitted list once did, 1.2–1.6 GB after 15 s of the
// benchmark's engine-hot-pool — would hold ≈ 100 MiB here; the heap must
// stay flat, the retained set must equal the live table, and
// AdmittedCount must still count every session.
func TestAdmitterRetainsOnlyLiveSessions(t *testing.T) {
	nw := testNetwork(t, 30, 12)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	base := testRequest(t, nw, 13)
	planned, err := cp.Planner().Plan(context.Background(), nw, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	const sessions = 50_000
	for i := 0; i < sessions; i++ {
		req := *base
		req.ID = 1000 + i
		sol := *planned
		sol.Request = &req
		sol.Servers = append(make([]graph.NodeID, 0, 256), planned.Servers...)
		if i%2 == 0 {
			if _, err := cp.Commit(&req, &sol); err != nil {
				t.Fatal(err)
			}
			if got := cp.Admitted(); len(got) != 1 || got[0] != &sol {
				t.Fatalf("session %d: %d retained while one is live", i, len(got))
			}
			if _, err := cp.Depart(req.ID); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := cp.Replay(req.ID, &sol); err != nil {
				t.Fatal(err)
			}
			if err := cp.Replay(req.ID, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(cp.Admitted()); n != 0 || cp.LiveCount() != 0 {
		t.Fatalf("%d sessions retained, %d live after every one departed", n, cp.LiveCount())
	}
	if cp.AdmittedCount() != sessions {
		t.Fatalf("AdmittedCount = %d, want %d", cp.AdmittedCount(), sessions)
	}
	if after := heap(); after > before+16<<20 {
		t.Fatalf("heap grew %d MiB over %d departed sessions", (after-before)>>20, sessions)
	}
}

// TestAdmittedIsAdmissionOrder: Admitted lists live sessions in the
// order they were admitted, whatever their IDs; Lives sorts by ID.
func TestAdmittedIsAdmissionOrder(t *testing.T) {
	nw := testNetwork(t, 30, 12)
	cp, err := newCPAdmitter(nw, DefaultCostModel(nw.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{30, 10, 20} {
		req := testRequest(t, nw, 13)
		req.ID = id
		if _, err := cp.Admit(context.Background(), req, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cp.Depart(10); err != nil {
		t.Fatal(err)
	}
	ids := func(sols []*Solution) []int {
		var out []int
		for _, s := range sols {
			out = append(out, s.Request.ID)
		}
		return out
	}
	if got := ids(cp.Admitted()); len(got) != 2 || got[0] != 30 || got[1] != 20 {
		t.Fatalf("Admitted() order %v, want [30 20]", got)
	}
	if got := ids(cp.Lives()); len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Fatalf("Lives() order %v, want [20 30]", got)
	}
}
