package engine

import (
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/obs"
)

// reconfEngine loads a GÉANT engine with enough sessions that early
// admissions drift up the exponential cost curve, returning the engine
// plus its event ring.
func reconfEngine(t *testing.T, beta float64, limit, requests int) (*Engine, *obs.RingSink, *obs.Registry) {
	t.Helper()
	nw := testNetwork(t, "geant", 7)
	p, err := core.NewReconfPlanner(core.DefaultCostModel(nw.NumNodes()), beta, limit)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(4096)
	eng := New(nw, p, Options{
		Workers: 1,
		Obs:     obs.NewAdmissionObs(reg, p.Name(), obs.AdmissionObsOptions{Events: ring}),
	})
	for _, req := range requestPool(t, nw.NumNodes(), requests, 29) {
		_, _ = eng.Admit(req)
	}
	if eng.AdmittedCount() == 0 {
		t.Fatal("fixture admitted nothing")
	}
	return eng, ring, reg
}

// TestEngineReconfiguresDriftedSessions drives the Reconf_CP migration
// pass through an empty Apply on a congested network and checks a
// migration happens, is observed (counter + event stream), and leaves
// the engine's books balanced: live count unchanged, residuals within
// bounds, and further admissions still served.
func TestEngineReconfiguresDriftedSessions(t *testing.T) {
	eng, ring, reg := reconfEngine(t, 1.01, 8, 120)
	defer eng.Close()

	liveBefore := eng.LiveCount()
	if err := eng.Apply(); err != nil {
		t.Fatalf("apply: %v", err)
	}
	migrated := eng.obs.ReconfiguredCount()
	if migrated == 0 {
		t.Fatal("congested fixture produced no migrations; loosen the workload")
	}
	if got := eng.LiveCount(); got != liveBefore {
		t.Fatalf("live count changed across reconfiguration: %d -> %d", liveBefore, got)
	}
	counted := uint64(0)
	for series, v := range reg.CounterValues() {
		if len(series) >= len("nfv_reconfigurations_total") &&
			series[:len("nfv_reconfigurations_total")] == "nfv_reconfigurations_total" {
			counted += v
		}
	}
	if counted != migrated {
		t.Fatalf("nfv_reconfigurations_total = %d, hook count %d", counted, migrated)
	}
	events := 0
	for _, ev := range ring.Events() {
		if ev.Type == obs.Reconfigured {
			events++
			if ev.Request == 0 || len(ev.Servers) == 0 || ev.Cost <= 0 {
				t.Fatalf("malformed reconfigured event: %+v", ev)
			}
		}
	}
	if uint64(events) != migrated {
		t.Fatalf("reconfigured events %d != counter %d", events, migrated)
	}
	checkResiduals(t, eng, false)

	// The engine keeps serving after a pass.
	reqs := requestPool(t, 40, 5, 97)
	for _, req := range reqs {
		if _, err := eng.Admit(req); err != nil && !core.IsRejection(err) {
			t.Fatalf("admission after reconfiguration: %v", err)
		}
	}
}

// TestEngineReconfHysteresisBlocksMigration pins the β rule: with an
// unreachable hysteresis threshold the identical workload migrates
// nothing.
func TestEngineReconfHysteresisBlocksMigration(t *testing.T) {
	eng, _, _ := reconfEngine(t, 1e9, 8, 120)
	defer eng.Close()
	if err := eng.Apply(); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if n := eng.obs.ReconfiguredCount(); n != 0 {
		t.Fatalf("β=1e9 still migrated %d sessions", n)
	}
}

// TestEngineReconfMigrationBudget pins the per-pass limit: a budget of
// one migrates at most one session per Apply no matter how much drift
// accumulated.
func TestEngineReconfMigrationBudget(t *testing.T) {
	eng, _, _ := reconfEngine(t, 1.01, 1, 120)
	defer eng.Close()
	if err := eng.Apply(); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if n := eng.obs.ReconfiguredCount(); n > 1 {
		t.Fatalf("budget 1 migrated %d sessions in one pass", n)
	}
}

// TestEngineReconfDeterministicAcrossWorkers reruns the admit+apply
// workload at several worker counts; migrated sessions and the
// post-pass total operational cost must be byte-identical (the pass
// runs wholly on the writer, so concurrency cannot reorder it).
func TestEngineReconfDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		migrated uint64
		lives    int
	}
	var ref *outcome
	for _, workers := range []int{1, 4, 8} {
		nw := testNetwork(t, "geant", 7)
		p, err := core.NewReconfPlanner(core.DefaultCostModel(nw.NumNodes()), 1.01, 8)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		eng := New(nw, p, Options{
			Workers: workers,
			Obs:     obs.NewAdmissionObs(reg, p.Name(), obs.AdmissionObsOptions{}),
		})
		for _, req := range requestPool(t, nw.NumNodes(), 120, 29) {
			_, _ = eng.Admit(req)
		}
		if err := eng.Apply(); err != nil {
			t.Fatalf("workers=%d apply: %v", workers, err)
		}
		got := outcome{migrated: eng.obs.ReconfiguredCount(), lives: eng.LiveCount()}
		eng.Close()
		if ref == nil {
			r := got
			ref = &r
			continue
		}
		if got != *ref {
			t.Fatalf("workers=%d: outcome %+v != sequential %+v", workers, got, *ref)
		}
	}
}
