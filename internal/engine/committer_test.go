package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	recov "nfvmcast/internal/recover"
)

// gatedJournal is a Journal whose Barrier parks until the test hands it
// a verdict, and which tracks — the way a log's LSNs do — which appended
// record every returned barrier covered. Like a wal.Log, a failed
// barrier is sticky: later appends and barriers fail.
type gatedJournal struct {
	verdicts chan error    // one receive per Barrier call
	parked   chan struct{} // one send per Barrier call, before it parks

	mu       sync.Mutex
	appended int         // records appended so far
	durable  int         // records covered by a barrier that returned nil
	barriers int         // Barrier calls that returned nil
	seqOf    map[int]int // request ID -> position of its admitted record
	broken   error
}

func newGatedJournal() *gatedJournal {
	// Both channels are buffered past any test's barrier count, so a
	// test can hand out verdicts ahead of the barriers they are for and
	// a barrier nobody is watching for does not block the committer.
	return &gatedJournal{
		verdicts: make(chan error, 64),
		parked:   make(chan struct{}, 64),
		seqOf:    make(map[int]int),
	}
}

func (j *gatedJournal) Append(o Outcome) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	j.appended++
	if o.Kind == Admitted {
		j.seqOf[o.ReqID] = j.appended
	}
	return nil
}

func (j *gatedJournal) Barrier() error {
	j.mu.Lock()
	covered := j.appended
	j.mu.Unlock()
	j.parked <- struct{}{}
	err := <-j.verdicts
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	if err != nil {
		j.broken = err
		return err
	}
	j.durable = covered
	j.barriers++
	return nil
}

func (j *gatedJournal) counts() (appended, durable, barriers int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended, j.durable, j.barriers
}

// ackedDurable reports whether the admitted record of reqID is covered
// by a barrier that has already returned.
func (j *gatedJournal) ackedDurable(reqID int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq, ok := j.seqOf[reqID]
	return ok && seq <= j.durable
}

// waitAppended blocks until n records are appended. A writer that sits
// inside Barrier (the pre-pipelining engine) never gets there.
func (j *gatedJournal) waitAppended(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, _, _ := j.counts(); got >= n {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%d records appended, want %d: the writer is waiting on a barrier", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func waitParked(t *testing.T, j *gatedJournal) {
	t.Helper()
	select {
	case <-j.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("no barrier was started")
	}
}

func nextRequests(t *testing.T, eng *Engine, seed int64, n int) []*multicast.Request {
	t.Helper()
	gen, err := multicast.NewGenerator(eng.adm.Network().NumNodes(), multicast.OnlineGeneratorConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*multicast.Request, n)
	for i := range reqs {
		if reqs[i], err = gen.Next(); err != nil {
			t.Fatal(err)
		}
	}
	return reqs
}

// TestBarrierSharedByQueuedOps is ROADMAP 3(a)'s fsyncs_per_req < 0.5 at
// eight callers, as a unit test: while one barrier is parked in the
// journal the writer keeps applying and appending, the eight admissions
// are made durable by at most two barriers, and none of them acks before
// a barrier covering its record has returned.
func TestBarrierSharedByQueuedOps(t *testing.T) {
	const callers = 8
	j := newGatedJournal()
	eng := journaledEngine(t, 1, j)
	defer eng.Close()
	defer close(j.verdicts) // a failing run must not leave Close behind a parked barrier
	reqs := nextRequests(t, eng, 5, callers)

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for _, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Admit(req); err != nil {
				errs <- fmt.Errorf("admit %d: %w", req.ID, err)
			} else if !j.ackedDurable(req.ID) {
				errs <- fmt.Errorf("admit %d acked before a barrier covered its record", req.ID)
			}
		}()
	}
	// Unpark the barriers only when every caller's record is in: the
	// first barrier is parked with whatever had arrived when it started,
	// the second takes all the rest.
	waitParked(t, j)
	j.waitAppended(t, callers)
	if _, durable, _ := j.counts(); durable != 0 {
		t.Fatalf("%d records durable with the only barrier still parked", durable)
	}
	j.verdicts <- nil
	j.verdicts <- nil
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, durable, barriers := j.counts(); durable != callers || barriers > 2 {
		t.Fatalf("%d barriers made %d of %d records durable, want <= 2 barriers for all", barriers, durable, callers)
	}
}

// TestBarrierFailureFailsWholeBatch: a barrier that fails takes every
// operation it covered with it. An admit, a depart and an admit wait on
// one barrier; it fails; all three callers get ErrDurability, both
// admissions are unwound (the depart cannot be), and the journal being
// sticky the next operation fails at its append.
func TestBarrierFailureFailsWholeBatch(t *testing.T) {
	j := newGatedJournal()
	eng := journaledEngine(t, 1, j)
	defer eng.Close()
	defer close(j.verdicts) // a failing run must not leave Close behind a parked barrier
	ref := journaledEngine(t, 1, &stubJournal{})
	defer ref.Close()
	reqs := nextRequests(t, eng, 6, 5)
	old, lead, first, second, after := reqs[0], reqs[1], reqs[2], reqs[3], reqs[4]

	// The state the failure must leave: old admitted and departed, lead
	// admitted, nothing else.
	for _, req := range []*multicast.Request{old, lead} {
		if _, err := ref.Admit(req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Depart(old.ID); err != nil {
		t.Fatal(err)
	}

	j.verdicts <- nil
	if _, err := eng.Admit(old); err != nil {
		t.Fatal(err)
	}
	<-j.parked

	// lead's barrier parks; the three operations under test queue up
	// behind it, in order, and will share the next barrier.
	results := make([]chan error, 4)
	launch := func(i int, op func() error) {
		results[i] = make(chan error, 1)
		before, _, _ := j.counts()
		go func() { results[i] <- op() }()
		j.waitAppended(t, before+1)
	}
	admit := func(req *multicast.Request) func() error {
		return func() error {
			sol, err := eng.Admit(req)
			if err != nil && sol != nil {
				return fmt.Errorf("admit %d returned a solution with %w", req.ID, err)
			}
			return err
		}
	}
	launch(0, admit(lead))
	waitParked(t, j)
	launch(1, admit(first))
	launch(2, func() error { _, err := eng.Depart(old.ID); return err })
	launch(3, admit(second))

	j.verdicts <- nil // lead's barrier
	if err := <-results[0]; err != nil {
		t.Fatalf("admit behind a healthy barrier: %v", err)
	}
	waitParked(t, j)
	j.verdicts <- errStubJournal // the barrier covering first, depart, second
	for i, name := range []string{"", "first admit", "depart", "second admit"} {
		if i == 0 {
			continue
		}
		if err := <-results[i]; !errors.Is(err, ErrDurability) {
			t.Errorf("%s = %v, want ErrDurability", name, err)
		}
	}

	var live []int
	for _, sol := range eng.Lives() {
		live = append(live, sol.Request.ID)
	}
	if len(live) != 1 || live[0] != lead.ID {
		t.Fatalf("live sessions %v, want only %d: failed admissions must be unwound, the depart stands", live, lead.ID)
	}
	if got, want := residualSig(eng), residualSig(ref); got != want {
		t.Fatal("residuals differ from the state with only the depart applied")
	}
	appended, _, _ := j.counts()
	if _, err := eng.Admit(after); !errors.Is(err, ErrDurability) {
		t.Fatalf("admit on a failed journal = %v, want ErrDurability", err)
	}
	if now, _, _ := j.counts(); now != appended {
		t.Fatal("the failed journal took another record")
	}
	if got := eng.LiveCount(); got != 1 {
		t.Fatalf("live count %d after an admit that failed at append, want 1", got)
	}
}

// TestOneBarrierPerOperation: an operation owes one barrier however many
// records it appends — here a maintenance batch whose failure makes the
// recovery ladder repair or shed live sessions.
func TestOneBarrierPerOperation(t *testing.T) {
	j := &stubJournal{}
	nw := testNetwork(t, "geant", 11)
	pol := recov.DefaultPolicy()
	eng := New(nw, core.NewSPPlanner(), Options{Journal: j, Recovery: &pol})
	defer eng.Close()
	for _, req := range nextRequests(t, eng, 7, 12) {
		if _, err := eng.Admit(req); err != nil && !core.IsRejection(err) {
			t.Fatal(err)
		}
	}
	var busiest, users int
	for e := 0; e < nw.NumEdges(); e++ {
		n := 0
		for _, sol := range eng.Lives() {
			if slices.ContainsFunc(sol.Tree.LinkLoads(), func(l multicast.EdgeLoad) bool { return l.Edge == e }) {
				n++
			}
		}
		if n > users {
			busiest, users = e, n
		}
	}
	if users < 2 {
		t.Fatalf("busiest link carries %d sessions; the workload does not exercise a multi-record pass", users)
	}
	linesBefore := len(j.lines())
	j.mu.Lock()
	barriersBefore := j.barriers
	j.mu.Unlock()
	if err := eng.Apply(Mutation{Kind: LinkState, ID: busiest, Up: false}); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	barriers := j.barriers - barriersBefore
	j.mu.Unlock()
	if records := len(j.lines()) - linesBefore; records < 1+users || barriers != 1 {
		t.Fatalf("%d records under %d barriers, want >= %d records under exactly 1", records, barriers, 1+users)
	}
}
