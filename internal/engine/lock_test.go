package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/testutil"
)

// stableGoroutines returns runtime.NumGoroutine once two reads 10 ms
// apart agree, so goroutines an earlier test left exiting are gone.
func stableGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// waitGoroutines polls until runtime.NumGoroutine is want, and returns
// the last reading.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// waitOrWedged waits for wg, failing the test if it does not finish
// within the watchdog.
func waitOrWedged(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(testutil.WatchdogFor(t)):
		t.Fatalf("%s: a caller never returned", what)
	}
}

// TestEngineGoroutines: an in-memory engine runs no goroutine of its
// own; a journaled engine runs exactly one, the committer, until Close.
func TestEngineGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		extra int
		opts  Options
	}{
		{"sequential", 0, Options{Workers: 1}},
		{"journaled", 1, Options{Workers: 4, Journal: &stubJournal{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := testNetwork(t, "geant", 3)
			base := stableGoroutines()
			eng := New(nw, plannerFor(t, "Online_CP", nw), tc.opts)
			for _, req := range requestPool(t, nw.NumNodes(), 10, 3) {
				if _, err := eng.Admit(req); err != nil && !core.IsRejection(err) {
					t.Fatal(err)
				}
			}
			if got := runtime.NumGoroutine(); got != base+tc.extra {
				t.Errorf("%d goroutines with the engine open, want %d (%d before New)", got, base+tc.extra, base)
			}
			eng.Close()
			if got := waitGoroutines(base); got != base {
				t.Errorf("%d goroutines after Close, want %d", got, base)
			}
		})
	}
}

// TestCloseRacingCallers: eight callers mix Admit, Depart and Apply
// while Close runs. Every call returns its normal result or ErrClosed,
// none hangs, and once a caller has seen ErrClosed every later call
// it makes sees it too.
func TestCloseRacingCallers(t *testing.T) {
	const callers, perCaller = 8, 40
	cases := []struct {
		name string
		opts Options
	}{
		{"sequential", Options{Workers: 1}},
		{"journaled", Options{Workers: 4, Journal: &stubJournal{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := testNetwork(t, "geant", 13)
			eng := New(nw, plannerFor(t, "Online_CP", nw), tc.opts)
			reqs := requestPool(t, nw.NumNodes(), callers*perCaller, 3)
			var calls atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					closed := false
					check := func(op string, err error, normal bool) {
						calls.Add(1)
						switch {
						case errors.Is(err, ErrClosed):
							closed = true
						case closed:
							t.Errorf("%s after ErrClosed returned %v", op, err)
						case !normal:
							t.Errorf("%s: %v", op, err)
						}
					}
					for i := 0; i < perCaller; i++ {
						req := reqs[g*perCaller+i]
						_, err := eng.Admit(req)
						check("admit", err, err == nil || core.IsRejection(err))
						if err == nil && i%2 == 0 {
							_, err := eng.Depart(req.ID)
							check("depart", err, err == nil)
						}
						if i%5 == 0 {
							err := eng.Apply()
							check("apply", err, err == nil)
						}
					}
				}(g)
			}
			for calls.Load() < callers*perCaller/4 {
				time.Sleep(100 * time.Microsecond)
			}
			eng.Close()
			waitOrWedged(t, &wg, "racing Close")
			if _, err := eng.Admit(reqs[0]); !errors.Is(err, ErrClosed) {
				t.Fatalf("Admit after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestSnapshotStatePanicClosesEngine: a panic in a SnapshotState
// closure — code run under the writer lock — continues on the caller,
// leaves the lock free and closes the engine, so later calls return
// ErrClosed instead of serving half-applied state.
func TestSnapshotStatePanicClosesEngine(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		name := "in-memory"
		opts := Options{Workers: 1}
		if journaled {
			name = "journaled"
			opts.Journal = &stubJournal{}
		}
		t.Run(name, func(t *testing.T) {
			nw := testNetwork(t, "geant", 5)
			eng := New(nw, core.NewSPPlanner(), opts)
			defer eng.Close()
			reqs := requestPool(t, nw.NumNodes(), 2, 5)
			if _, err := eng.Admit(reqs[0]); err != nil && !core.IsRejection(err) {
				t.Fatal(err)
			}
			admitted := eng.AdmittedCount()

			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Errorf("recovered %v, want the closure's panic", r)
					}
				}()
				_ = eng.SnapshotState(func(*sdn.Network, []*core.Solution) { panic("boom") })
				t.Error("SnapshotState returned instead of re-panicking")
			}()
			if !eng.mu.TryLock() {
				t.Fatal("the writer lock is still held after the panic")
			}
			eng.mu.Unlock()

			if _, err := eng.Admit(reqs[1]); !errors.Is(err, ErrClosed) {
				t.Errorf("Admit after the panic = %v, want ErrClosed", err)
			}
			if _, err := eng.Depart(reqs[0].ID); !errors.Is(err, ErrClosed) {
				t.Errorf("Depart after the panic = %v, want ErrClosed", err)
			}
			if err := eng.Apply(); !errors.Is(err, ErrClosed) {
				t.Errorf("Apply after the panic = %v, want ErrClosed", err)
			}
			if got := eng.AdmittedCount(); got != admitted {
				t.Errorf("AdmittedCount after the panic = %d, want %d", got, admitted)
			}
		})
	}
}

// TestCountersAfterClose: AdmittedCount, RejectedCount and LiveCount
// keep reporting the final state after Close instead of zero.
func TestCountersAfterClose(t *testing.T) {
	for _, opts := range []Options{
		{Workers: 1},
		{Workers: 4, Journal: &stubJournal{}},
	} {
		nw := testNetwork(t, "geant", 7)
		eng := New(nw, core.NewSPPlanner(), opts)
		for i, req := range requestPool(t, nw.NumNodes(), 400, 7) {
			if _, err := eng.Admit(req); err == nil && i%3 == 0 {
				if _, err := eng.Depart(req.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		admitted, rejected, live := eng.AdmittedCount(), eng.RejectedCount(), eng.LiveCount()
		if admitted == 0 || rejected == 0 || live == 0 || live == admitted {
			t.Fatalf("workload too mild: %d admitted, %d rejected, %d live", admitted, rejected, live)
		}
		eng.Close()
		if a, r, l := eng.AdmittedCount(), eng.RejectedCount(), eng.LiveCount(); a != admitted || r != rejected || l != live {
			t.Fatalf("after Close: %d/%d/%d admitted/rejected/live, want %d/%d/%d", a, r, l, admitted, rejected, live)
		}
	}
}
