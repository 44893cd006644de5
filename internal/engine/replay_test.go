package engine_test

import (
	"fmt"
	"math"
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
// Reoptimize, an Apply whose recovery pass repairs and sheds, and the
// migration passes that follow every maintenance operation — into a
// recording journal. Replaying the recorded outcomes into a fresh
// engine on the same substrate must reproduce its fingerprint.
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
	// Re-place the live sessions with Appro_Multi on the writer.
	if moved, _, err := eng.Reoptimize(core.Options{K: 1}); err != nil || len(moved) == 0 {
		t.Fatalf("reoptimize moved %d sessions: %v", len(moved), err)
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
	if err := eng.Apply(engine.Mutation{Kind: engine.LinkCapacity, ID: replayFailLink, Capacity: 2 * nw.BandwidthCap(replayFailLink)}); err != nil {
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

// reoptFixture is a GÉANT engine under policy that admitted 80 requests
// of generator seed 8, every one of them, into the returned journal.
func reoptFixture(t *testing.T, policy string) (*engine.Engine, *recordingJournal) {
	t.Helper()
	nw := geant(t)
	planner, err := core.NewPlanner(policy, core.PlannerOptions{Nodes: nw.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	eng := engine.New(nw, planner, engine.Options{Journal: j})
	t.Cleanup(eng.Close)
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.Batch(80)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		if _, err := eng.Admit(req); err != nil {
			t.Fatalf("fixture request %d: %v", req.ID, err)
		}
	}
	return eng, j
}

// TestReoptimizeReplaysBitExact: a re-optimisation pass journals only
// the sessions it moved, so the sessions it kept must end on the very
// residuals they started from. Replaying the journal of a pass at K=1
// and at K=2 must reproduce the live engine's fingerprint.
func TestReoptimizeReplaysBitExact(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			eng, j := reoptFixture(t, "SP")
			moved, saved, err := eng.Reoptimize(core.Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			if len(moved) == 0 || len(moved) == eng.LiveCount() || saved <= 0 {
				t.Fatalf("pass moved %d of %d sessions, saved %v: the history needs moved and kept sessions",
					len(moved), eng.LiveCount(), saved)
			}
			t.Logf("moved %d of %d sessions", len(moved), eng.LiveCount())
			want, err := wal.Fingerprint(eng)
			if err != nil {
				t.Fatal(err)
			}
			replayed := engine.New(geant(t), core.NewSPPlanner(), engine.Options{})
			defer replayed.Close()
			if err := replayed.Replay(j.outcomes()...); err != nil {
				t.Fatal(err)
			}
			if got, err := wal.Fingerprint(replayed); err != nil || got != want {
				t.Fatalf("replay after %d moves: fingerprint %.16s.. (%v), engine %.16s..", len(moved), got, err, want)
			}
		})
	}
}

// TestReoptimizeKeepsReconfBooks: on a Reconf_CP engine the migration
// pass that follows Reoptimize releases the allocations the live table
// records, so it must see the moves first. Afterwards every link's and
// server's capacity − residual equals the live sessions' summed shares,
// within the scenario invariants' tolerance.
func TestReoptimizeKeepsReconfBooks(t *testing.T) {
	eng, j := reoptFixture(t, "Reconf_CP")
	moved, _, err := eng.Reoptimize(core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The journal holds the pass's moves and then the migrations.
	migrated := -len(moved)
	for _, o := range j.outcomes() {
		if o.Kind == engine.Repaired {
			migrated++
		}
	}
	if len(moved) == 0 || migrated == 0 {
		t.Fatalf("re-optimisation moved %d sessions and the migration pass %d; the history needs both", len(moved), migrated)
	}
	t.Logf("moved %d of %d sessions, then migrated %d", len(moved), eng.LiveCount(), migrated)
	err = eng.SnapshotState(func(nw *sdn.Network, lives []*core.Solution) {
		links, servers := make(map[int]float64), make(map[int]float64)
		for _, sol := range lives {
			alloc := core.AllocationFor(sol.Request, sol.Tree)
			for _, l := range alloc.Links {
				links[l.Edge] += l.Mbps
			}
			for _, s := range alloc.Servers {
				servers[s.Node] += s.MHz
			}
		}
		tol := func(want, cap float64) float64 { return 1e-6*math.Max(1, math.Abs(want)) + 1e-9*math.Abs(cap) }
		for e := 0; e < nw.NumEdges(); e++ {
			cap := nw.BandwidthCap(e)
			if got := cap - nw.ResidualBandwidth(e); math.Abs(got-links[e]) > tol(links[e], cap) {
				t.Errorf("link %d: capacity − residual %v Mbps, live sessions hold %v", e, got, links[e])
			}
		}
		for _, v := range nw.Servers() {
			cap := nw.ComputeCap(v)
			if got := cap - nw.ResidualCompute(v); math.Abs(got-servers[v]) > tol(servers[v], cap) {
				t.Errorf("server %d: capacity − residual %v MHz, live sessions hold %v", v, got, servers[v])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
