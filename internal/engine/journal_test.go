package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
)

// stubJournal is a scriptable Journal: every hook can be told to fail,
// and appended outcomes are recorded for inspection.
type stubJournal struct {
	mu       sync.Mutex
	appends  []string
	barriers int

	failAppend  bool
	failBarrier bool
}

var errStubJournal = errors.New("stub journal: disk on fire")

func (j *stubJournal) note(line string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failAppend {
		return errStubJournal
	}
	j.appends = append(j.appends, line)
	return nil
}

// outcomeNames render session outcomes in the stub's log lines.
var outcomeNames = map[OutcomeKind]string{
	Admitted: "admitted", Departed: "departed", Repaired: "repaired", Shed: "shed",
}

func (j *stubJournal) Append(o Outcome) error {
	if o.Kind == MutationsApplied {
		return j.note(fmt.Sprintf("mutations %d", len(o.Mutations)))
	}
	return j.note(fmt.Sprintf("%s %d", outcomeNames[o.Kind], o.ReqID))
}
func (j *stubJournal) Barrier() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failBarrier {
		return errStubJournal
	}
	j.barriers++
	return nil
}

func (j *stubJournal) setFail(append, barrier bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.failAppend, j.failBarrier = append, barrier
}

func (j *stubJournal) lines() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.appends...)
}

// residualSig renders every residual with exact float formatting — a
// cheap state signature for unwind assertions.
func residualSig(eng *Engine) string {
	var sb strings.Builder
	nw := eng.adm.Network()
	for e := 0; e < nw.NumEdges(); e++ {
		fmt.Fprintf(&sb, "%s,", strconv.FormatFloat(nw.ResidualBandwidth(e), 'g', -1, 64))
	}
	for _, v := range nw.Servers() {
		fmt.Fprintf(&sb, "%s,", strconv.FormatFloat(nw.ResidualCompute(v), 'g', -1, 64))
	}
	return sb.String()
}

func journaledEngine(t *testing.T, workers int, j Journal) *Engine {
	t.Helper()
	nw := testNetwork(t, "geant", 11)
	return NewWith(nw, core.NewSPPlanner(), WithWorkers(workers), WithJournal(j))
}

func admitOne(t *testing.T, eng *Engine, gen *multicast.Generator) *multicast.Request {
	t.Helper()
	for {
		req, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		_, aerr := eng.Admit(req)
		if aerr == nil {
			return req
		}
		if !core.IsRejection(aerr) {
			t.Fatalf("admit: %v", aerr)
		}
	}
}

// TestJournalFailureUnwindsAdmission: "acked implies logged" — when the
// journal cannot take the admission, the admission must not stand. The
// request's resources are released, the error is ErrDurability, and the
// failure is not miscounted as a policy rejection.
func TestJournalFailureUnwindsAdmission(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"append", "barrier"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(t *testing.T) {
				j := &stubJournal{}
				eng := journaledEngine(t, workers, j)
				defer eng.Close()
				gen, err := multicast.NewGenerator(eng.adm.Network().NumNodes(), multicast.OnlineGeneratorConfig(), 1)
				if err != nil {
					t.Fatal(err)
				}
				admitOne(t, eng, gen) // a healthy admission first
				liveBefore := eng.LiveCount()
				rejBefore := eng.RejectedCount()
				fpBefore := residualSig(eng)

				j.setFail(mode == "append", mode == "barrier")
				req, gerr := gen.Next()
				if gerr != nil {
					t.Fatal(gerr)
				}
				sol, aerr := eng.Admit(req)
				if sol != nil {
					t.Fatal("journal failure returned a solution — an unlogged ack")
				}
				if !errors.Is(aerr, ErrDurability) {
					t.Fatalf("error = %v, want ErrDurability", aerr)
				}
				if got := eng.LiveCount(); got != liveBefore {
					t.Fatalf("live count %d after unwind, want %d", got, liveBefore)
				}
				if got := eng.RejectedCount(); got != rejBefore {
					t.Fatalf("durability failure was counted as a rejection (%d -> %d)", rejBefore, got)
				}
				if got := residualSig(eng); got != fpBefore {
					t.Fatal("unwind left resources allocated")
				}

				// The failure is sticky at the engine surface: the journal
				// stays broken, so later admissions must also fail durable.
				req2, _ := gen.Next()
				if _, aerr2 := eng.Admit(req2); !errors.Is(aerr2, ErrDurability) {
					t.Fatalf("second admit after journal failure = %v, want ErrDurability", aerr2)
				}

				// And recovery of the journal restores service.
				j.setFail(false, false)
				admitOne(t, eng, gen)
				if got := eng.LiveCount(); got != liveBefore+1 {
					t.Fatalf("post-recovery live count %d, want %d", got, liveBefore+1)
				}
			})
		}
	}
}

// TestJournalFailureOnDepart: a departure that cannot be journaled
// still departed (the release is not unwindable), and the caller learns
// via ErrDurability that the log is behind the state.
func TestJournalFailureOnDepart(t *testing.T) {
	j := &stubJournal{}
	eng := journaledEngine(t, 1, j)
	defer eng.Close()
	gen, err := multicast.NewGenerator(eng.adm.Network().NumNodes(), multicast.OnlineGeneratorConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	req := admitOne(t, eng, gen)

	j.setFail(true, false)
	if _, derr := eng.Depart(req.ID); !errors.Is(derr, ErrDurability) {
		t.Fatalf("depart with broken journal = %v, want ErrDurability", derr)
	}
	if got := eng.LiveCount(); got != 0 {
		t.Fatalf("session still live after depart: %d", got)
	}
}

// TestJournalRecordsOutcomes pins the append vocabulary: admissions,
// departures and maintenance batches land in the journal in operation
// order, each ack preceded by a barrier.
func TestJournalRecordsOutcomes(t *testing.T) {
	j := &stubJournal{}
	eng := journaledEngine(t, 1, j)
	defer eng.Close()
	gen, err := multicast.NewGenerator(eng.adm.Network().NumNodes(), multicast.OnlineGeneratorConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	req := admitOne(t, eng, gen)
	if err := eng.Apply(Mutation{Kind: LinkState, ID: 0, Up: false}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Depart(req.ID); err != nil {
		t.Fatal(err)
	}

	lines := j.lines()
	want := []string{fmt.Sprintf("admitted %d", req.ID), "mutations 1"}
	for i, w := range want {
		if i >= len(lines) || lines[i] != w {
			t.Fatalf("journal line %d = %q, want %q (all: %q)", i, lines[i], w, lines)
		}
	}
	last := lines[len(lines)-1]
	if last != fmt.Sprintf("departed %d", req.ID) {
		t.Fatalf("last journal line = %q, want the departure (all: %q)", last, lines)
	}
	j.mu.Lock()
	barriers := j.barriers
	j.mu.Unlock()
	if barriers < len(lines) {
		t.Fatalf("%d barriers for %d appends — some ack was not fsync-covered", barriers, len(lines))
	}
}
