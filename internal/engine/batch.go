package engine

// Epoch-batched commits. With Options.BatchWindow > 1 the concurrent
// admission path stops submitting commits as individual writer ops:
// finished plans queue commit tickets, and the writer drains up to one
// window of waiting tickets per loop iteration, committing them in
// ascending request-ID order inside one network mutation batch — the
// residuals move per commit (each member validates against what the
// members before it left), but MutationVersion moves once per epoch,
// so planner caches keyed on it see a single transition per burst
// instead of one per request.
//
// The whole epoch runs inside one writer critical section: no snapshot
// clone, depart or update can interleave with the members of a batch,
// which is what makes the per-epoch version bump safe — a clone can
// only ever observe the pre- or post-epoch residual state, never a
// mid-batch one that would alias the pre-batch (structure, mutation)
// cache key with different residuals.
//
// Determinism: a sequentially-driven engine (one in-flight Admit) has
// at most one waiting ticket, so every epoch has size 1 and decisions
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
// verdict is filled on the writer during the epoch; the ack is
// released by the writer at once for a member that journaled nothing,
// and by the committer after the epoch's shared barrier for the rest —
// acks never precede durability (see commitEpoch and committer.go).
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

// submitCommit queues sol for the next commit epoch and waits for its
// verdict. Only called on the batched concurrent path.
func (e *Engine) submitCommit(req *multicast.Request, sol *core.Solution, epoch uint64) (*core.Solution, bool, error) {
	t := ticketPool.Get().(*commitTicket)
	t.req, t.sol, t.epoch = req, sol, epoch
	v := commitVerdict{err: ErrClosed}
	select {
	case e.commits <- t:
		// The writer has the ticket and it is always answered.
		<-t.done
		if v = t.verdict; t.jerr != nil {
			v = commitVerdict{err: t.jerr} // the epoch's barrier failed
		}
	case <-e.quit:
	}
	t.req, t.sol, t.verdict, t.ack = nil, nil, commitVerdict{}, ack{done: t.done}
	ticketPool.Put(t)
	return v.sol, v.stale, v.err
}

// commitEpoch runs on the writer: starting from the ticket just
// received, it drains whatever other tickets are already waiting (up
// to the window), orders the epoch by ascending request ID and commits
// every member inside one network mutation batch.
func (e *Engine) commitEpoch(first *commitTicket) {
	batch := append(e.batchScratch[:0], first)
	for len(batch) < e.batchWindow {
		select {
		case t := <-e.commits:
			batch = append(batch, t)
		default:
			goto drained
		}
	}
drained:
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
	// Journal the epoch's successful commits, one Admitted append per
	// member. A member whose append failed is unwound on the spot; the
	// others are staged together and share the committer's next barrier
	// — the group-commit amortisation — which, should it fail, unwinds
	// them like any other admission.
	for _, t := range batch {
		e.cur = &t.ack
		if t.verdict.err == nil {
			if jerr := e.journalCommitted(t.req, t.verdict.sol); jerr != nil {
				t.verdict = commitVerdict{err: jerr}
			}
		}
		e.settle(&t.ack)
	}
	e.obs.BatchCommitted(len(batch))
}
