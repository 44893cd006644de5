package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
)

// TestEpochBatchAmortizesMutationVersion stages a full commit window:
// eight planned solutions queue while the writer is held inside an
// Update, so when it returns to its loop every ticket is waiting and
// one epoch absorbs them all — committed in ascending request-ID order
// with exactly one MutationVersion bump.
func TestEpochBatchAmortizesMutationVersion(t *testing.T) {
	const n = 8
	nw := testNetwork(t, "geant", 3)
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(256)
	aobs := obs.NewAdmissionObs(reg, "Online_CP", obs.AdmissionObsOptions{Events: ring})
	eng := NewWith(nw, plannerFor(t, "Online_CP", nw),
		WithWorkers(4), WithBatchWindow(16), WithMetrics(aobs))
	defer eng.Close()

	// Plan everything up front against clones of the untouched network
	// (no op is in flight, so reading nw is safe), feeding the tickets
	// shuffled IDs to make the epoch's ordering observable.
	reqs := requestPool(t, nw.NumNodes(), n, 29)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	sols := make([]*core.Solution, n)
	for i, req := range reqs {
		req.ID = perm[i]
		sol, err := eng.adm.PlanOn(context.Background(), nw.Clone(), req, nil)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		sols[i] = sol
	}

	// Hold the writer so every submitCommit parks on the ticket channel.
	hold := make(chan struct{})
	entered := make(chan struct{})
	var updErr error
	var updWg sync.WaitGroup
	updWg.Add(1)
	go func() {
		defer updWg.Done()
		updErr = eng.Update(func(*sdn.Network) error {
			close(entered)
			<-hold
			return nil
		})
	}()
	<-entered

	verBefore := nw.MutationVersion()
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(req *multicast.Request, sol *core.Solution) {
			defer wg.Done()
			if _, _, err := eng.submitCommit(req, sol, 1); err != nil {
				t.Errorf("commit %d: %v", req.ID, err)
			}
		}(reqs[i], sols[i])
	}
	time.Sleep(100 * time.Millisecond) // let every ticket park
	close(hold)
	wg.Wait()
	updWg.Wait()
	if updErr != nil {
		t.Fatalf("update: %v", updErr)
	}

	if got := eng.AdmittedCount(); got != n {
		t.Fatalf("admitted = %d, want %d", got, n)
	}
	batches := reg.CounterValues()[`nfv_commit_batches_total{policy="Online_CP"}`]
	if batches != 1 {
		t.Fatalf("epochs = %d, want 1 (all tickets were parked)", batches)
	}
	if got := nw.MutationVersion(); got != verBefore+1 {
		t.Fatalf("MutationVersion moved %d times for one epoch, want 1", got-verBefore)
	}
	// Within the epoch, commits ran in ascending request-ID order.
	last := -1
	var admitted int
	for _, ev := range ring.Events() {
		if ev.Type != obs.Admitted {
			continue
		}
		admitted++
		if ev.Request <= last {
			t.Fatalf("epoch committed request %d after %d: not ascending", ev.Request, last)
		}
		last = ev.Request
	}
	if admitted != n {
		t.Fatalf("admitted events = %d, want %d", admitted, n)
	}
	checkEngineConsistency(t, eng, nw)
}

// TestBatchWindowSequentialDriverDecisionsIdentical pins the
// determinism contract: an engine driven one request at a time decides
// byte-identically at every batch window, because each epoch then
// holds exactly one ticket.
func TestBatchWindowSequentialDriverDecisionsIdentical(t *testing.T) {
	const requests = 40
	var want []decision
	for _, window := range []int{1, 16, 64} {
		nw := testNetwork(t, "waxman", 5)
		eng := NewWith(nw, plannerFor(t, "Online_CP", nw),
			WithWorkers(4), WithBatchWindow(window))
		reqs := requestPool(t, nw.NumNodes(), requests, 31)
		got := make([]decision, len(reqs))
		for i, req := range reqs {
			got[i] = captureDecision(eng.Admit(req))
		}
		eng.Close()
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if !sameDecision(want[i], got[i]) {
				t.Fatalf("window %d: request %d decided differently from window 1", window, i)
			}
		}
	}
}

// TestBatchWindowConcurrentStress hammers a batched engine with
// concurrent admits and departs and reconciles the final state; run
// with -race it also proves the ticket path introduces no new races.
func TestBatchWindowConcurrentStress(t *testing.T) {
	nw := testNetwork(t, "geant", 9)
	eng := NewWith(nw, plannerFor(t, "Online_CP", nw),
		WithWorkers(4), WithBatchWindow(16))
	defer eng.Close()

	reqs := requestPool(t, nw.NumNodes(), 120, 17)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var admitted []int
	for _, req := range reqs {
		wg.Add(1)
		go func(req *multicast.Request) {
			defer wg.Done()
			if _, err := eng.Admit(req); err == nil {
				mu.Lock()
				admitted = append(admitted, req.ID)
				mu.Unlock()
			}
		}(req)
	}
	wg.Wait()
	// Depart half of what was admitted, concurrently.
	for i, id := range admitted {
		if i%2 != 0 {
			continue
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if _, err := eng.Depart(id); err != nil {
				t.Errorf("depart %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	checkEngineConsistency(t, eng, nw)
	if got, want := eng.AdmittedCount()+eng.RejectedCount(), len(reqs); got != want {
		t.Fatalf("decisions = %d, want %d", got, want)
	}
}
