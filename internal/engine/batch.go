package engine

// Epoch-batched commits. With Options.BatchWindow > 1 a finished plan
// queues a commit ticket and then takes the writer lock; the lock holder
// drains up to one window of queued tickets and commits them in
// ascending request-ID order inside one network mutation batch — the
// residuals move per commit (each member validates against what the
// members before it left), but MutationVersion moves once per epoch, so
// planner caches keyed on it see one transition per burst instead of one
// per request. Every caller queues one ticket and then drains at least
// one while any is queued, so every ticket is committed; a caller whose
// ticket an earlier holder committed just waits for its ack.
//
// The whole epoch runs inside one critical section: no snapshot clone,
// depart or update can interleave with the members of a batch, which is
// what makes the per-epoch version bump safe — a clone can only ever
// observe the pre- or post-epoch residual state, never a mid-batch one
// that would alias the pre-batch (structure, mutation) cache key with
// different residuals.
//
// Determinism: a sequentially-driven engine (one in-flight Admit) has
// at most one queued ticket, so every epoch has size 1 and decisions
// are byte-identical across batch windows — the shard determinism
// oracle pins this. Under concurrency the window only changes how
// conflicts interleave, never the per-member validation order (always
// ascending request ID within an epoch).

import (
	"sort"
	"sync"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
)

// commitTicket is one planned solution waiting for an epoch commit.
// verdict is filled under the writer lock during the epoch; the ack is
// released by the lock holder at once for a member that journaled
// nothing, and by the committer after the epoch's shared barrier for
// the rest — acks never precede durability (see commitEpoch and
// committer.go).
type commitTicket struct {
	req     *multicast.Request
	sol     *core.Solution
	epoch   uint64
	verdict commitVerdict
	ack
}

type commitVerdict struct {
	sol   *core.Solution
	stale bool
	err   error
}

// ticketPool recycles commit tickets (and their buffered ack
// channels) across epochs. The send on done is the engine's last touch
// of a ticket, so returning the ticket after the receive never races.
var ticketPool = sync.Pool{New: func() any {
	return &commitTicket{ack: ack{done: make(chan struct{}, 1)}}
}}

// submitCommit queues sol for a commit epoch, runs one under the writer
// lock and waits for its verdict. Only called on the batched concurrent
// path.
func (e *Engine) submitCommit(req *multicast.Request, sol *core.Solution, epoch uint64) (*core.Solution, bool, error) {
	t := ticketPool.Get().(*commitTicket)
	t.req, t.sol, t.epoch = req, sol, epoch
	e.queueMu.Lock()
	e.queue = append(e.queue, t)
	e.queueMu.Unlock()
	if e.exec(e.commitEpoch) != nil {
		// Closed: no lock holder drains the queue any more.
		e.refuseQueued()
	}
	<-t.done
	v := t.verdict
	if t.jerr != nil {
		v = commitVerdict{err: t.jerr} // the epoch's barrier failed
	}
	t.req, t.sol, t.verdict, t.ack = nil, nil, commitVerdict{}, ack{done: t.done}
	ticketPool.Put(t)
	return v.sol, v.stale, v.err
}

// refuseQueued answers every queued ticket with ErrClosed.
func (e *Engine) refuseQueued() {
	e.queueMu.Lock()
	queued := e.queue
	e.queue = nil
	e.queueMu.Unlock()
	for _, t := range queued {
		t.verdict = commitVerdict{err: ErrClosed}
		t.done <- struct{}{}
	}
}

// commitEpoch runs under the writer lock: it takes up to one window of
// queued tickets, oldest first, orders the epoch by ascending request ID
// and commits every member inside one network mutation batch.
func (e *Engine) commitEpoch() {
	e.queueMu.Lock()
	n := min(len(e.queue), e.batchWindow)
	batch := append(e.batchScratch[:0], e.queue[:n]...)
	e.queue = append(e.queue[:0], e.queue[n:]...)
	e.queueMu.Unlock()
	if n == 0 {
		return
	}
	e.batchScratch = batch

	sort.SliceStable(batch, func(i, j int) bool {
		return batch[i].req.ID < batch[j].req.ID
	})
	nw := e.adm.Network()
	nw.BeginMutationBatch()
	for _, t := range batch {
		t.verdict.stale = e.mutations != t.epoch
		t.verdict.sol, t.verdict.err = e.adm.Commit(t.req, t.sol)
		if t.verdict.err == nil {
			e.mutations++
		}
	}
	nw.EndMutationBatch()
	// Journal the epoch's successful commits, one Admitted outcome per
	// member. A member whose append failed is unwound on the spot; the
	// others are staged together and share the committer's next barrier
	// — the group-commit amortisation — which, should it fail, unwinds
	// them like any other admission. A settled member leaves the epoch
	// buffer, so a panic (see exec) answers only the members it cut off.
	for i, t := range batch {
		e.cur = &t.ack
		if t.verdict.err == nil {
			if jerr := e.journalCommitted(t.req, t.verdict.sol); jerr != nil {
				t.verdict = commitVerdict{err: jerr}
			}
		}
		e.settle(&t.ack)
		batch[i] = nil
	}
	e.obs.BatchCommitted(n)
}
