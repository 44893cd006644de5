package engine_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
	"nfvmcast/internal/wal"
)

// recordingJournal keeps every outcome the engine journals, in order.
type recordingJournal struct {
	mu   sync.Mutex
	outs []engine.Outcome
}

func (j *recordingJournal) Append(o engine.Outcome) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.outs = append(j.outs, o)
	return nil
}

func (j *recordingJournal) Barrier() error { return nil }

func (j *recordingJournal) outcomes() []engine.Outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]engine.Outcome(nil), j.outs...)
}

func geant(t *testing.T) *sdn.Network {
	t.Helper()
	nw, err := sdn.NewNetwork(topology.GEANT(), sdn.DefaultConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// replayFailLink is the GÉANT link whose failure, after the sequential
// prefix of TestReplayOfJournaledOutcomes, makes recovery both repair
// and shed.
const replayFailLink = 59

// TestReplayOfJournaledOutcomes: what the engine journals replays to
// the same state. A Reconf_CP engine with four planners runs a mixed
// history — sequential and concurrent admissions, departures, a
// Replace, an Apply whose recovery pass repairs and sheds, and the
// migration passes that follow every Apply — into a recording journal. Replaying the recorded outcomes into a
// fresh engine on the same substrate must reproduce its fingerprint.
func TestReplayOfJournaledOutcomes(t *testing.T) {
	nw := geant(t)
	planner, err := core.NewPlanner("Reconf_CP", core.PlannerOptions{Nodes: nw.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	j := &recordingJournal{}
	pol := recov.DefaultPolicy()
	eng := engine.New(nw, planner, engine.Options{
		Workers:  4,
		Recovery: &pol,
		Journal:  j,
		Obs:      obs.NewAdmissionObs(reg, planner.Name(), obs.AdmissionObsOptions{}),
	})
	defer eng.Close()
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.Batch(160)
	if err != nil {
		t.Fatal(err)
	}
	admit := func(req *multicast.Request) {
		if _, err := eng.Admit(req); err != nil && !core.IsRejection(err) {
			t.Error(err)
		}
	}
	depart := func(every int) {
		for i, sol := range eng.Lives() {
			if i%every == 0 {
				if _, err := eng.Depart(sol.Request.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Sequential prefix: one request in flight, so its decisions are
	// those of any worker count.
	for _, req := range reqs[:60] {
		admit(req)
	}
	depart(7)
	// Replace: re-place the oldest live session with Appro_Multi on the
	// writer (keeping it where it is when that does not fit).
	old := eng.Lives()[0]
	chosen := old
	if err := eng.Update(func(nw *sdn.Network) error {
		if err := nw.Release(core.AllocationFor(old.Request, old.Tree)); err != nil {
			return err
		}
		fresh, err := core.ApproMulti(nw, old.Request, core.Options{K: 1, Capacitated: true})
		if err == nil && nw.Allocate(core.AllocationFor(old.Request, fresh.Tree)) == nil {
			chosen = fresh
			return nil
		}
		return nw.Allocate(core.AllocationFor(old.Request, old.Tree))
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Replace(old.Request.ID, chosen); err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(engine.Mutation{Kind: engine.LinkState, ID: replayFailLink, Up: false}); err != nil {
		t.Fatal(err)
	}
	if rep := eng.LastRecovery(); rep == nil || rep.Repaired() == 0 || rep.Shed == 0 {
		t.Fatalf("recovery report %+v: the history needs a repair and a shed", rep)
	}
	if err := eng.Apply(engine.Mutation{Kind: engine.LinkState, ID: replayFailLink, Up: true}); err != nil {
		t.Fatal(err)
	}

	// Concurrent suffix: four callers feed the concurrent commit path.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 60 + g; i < len(reqs); i += 4 {
				admit(reqs[i])
			}
		}(g)
	}
	wg.Wait()
	depart(5)
	if err := eng.ApplyContext(context.Background(),
		engine.Mutation{Kind: engine.LinkCapacity, ID: replayFailLink, Capacity: 2 * nw.BandwidthCap(replayFailLink)}); err != nil {
		t.Fatal(err)
	}

	outs := j.outcomes()
	kinds := map[engine.OutcomeKind]int{}
	for _, o := range outs {
		kinds[o.Kind]++
	}
	for _, k := range []engine.OutcomeKind{engine.Admitted, engine.Departed, engine.Repaired, engine.Shed, engine.MutationsApplied} {
		if kinds[k] == 0 {
			t.Fatalf("history journaled no outcome of kind %d (%v)", k, kinds)
		}
	}
	counters := reg.CounterValues()
	if counters[`nfv_reconfigurations_total{policy="Reconf_CP"}`] == 0 {
		t.Fatalf("history migrated no session (%v)", counters)
	}
	t.Logf("%d outcomes %v", len(outs), kinds)

	want, err := wal.Fingerprint(eng)
	if err != nil {
		t.Fatal(err)
	}
	replayed := engine.New(geant(t), core.NewSPPlanner(), engine.Options{})
	defer replayed.Close()
	if err := replayed.Replay(outs...); err != nil {
		t.Fatal(err)
	}
	got, err := wal.Fingerprint(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || replayed.LiveCount() != eng.LiveCount() {
		t.Fatalf("replay of %d outcomes: fingerprint %s.. (%d live), engine %s.. (%d live)",
			len(outs), got[:16], replayed.LiveCount(), want[:16], eng.LiveCount())
	}
}
