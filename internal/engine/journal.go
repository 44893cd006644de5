package engine

import (
	"errors"
	"fmt"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// Durable admission. A Journal is the engine's write-ahead hook: every
// state-changing outcome — an admission commit, a departure, a repair
// or shed decided by the recovery ladder, an applied maintenance batch
// — is appended to the journal on the writer goroutine, in exactly the
// order the state changed, and made durable by a Barrier *before* the
// operation acks to its caller. That ordering is the whole durability
// contract: an acked operation is in the log, so replaying the log
// (internal/wal) reconstructs precisely the acked state. Rejections and
// failed operations change no state and are not journaled.
//
// The path is append → committer barrier → ack (committer.go). The
// writer appends and moves on; the committer goroutine barriers every
// operation whose records are appended and not yet durable with one
// Barrier call and then releases their acks. One operation owes one
// barrier however many records it appended (a recovery pass, a
// maintenance batch with its repairs, a commit epoch), and operations
// that arrive while a barrier is in flight share the next one.
//
// The visibility window: between its append and its ack an operation's
// state change is already live on the writer. An admission not yet
// acked is counted by LiveCount, listed by Lives (and the daemon's
// /v1/report), captured by SnapshotState, planned around by later
// requests — a rejection may be caused by capacity a not-yet-acked
// admission holds — and can even be departed by ID. Only the ack waits
// for the disk. What a crash can lose is exactly such un-acked work.
//
// A journal error after the in-memory state change is the one place
// the engine cannot keep "acked == logged" on its own. A failed append
// fails its operation; a failed barrier fails every operation it
// covered. Either way the engine unwinds admissions (the commit is
// departed again and the caller gets ErrDurability — until then later
// requests may have been planned around it), but releases and
// maintenance cannot be un-applied — those surface ErrDurability with
// the state change in place, and the caller must treat the journal as
// failed (a wal.Log makes the failure sticky) and restart. Replay then
// reconstructs the last durable prefix, which never includes an
// operation that was acked as failed.

// ErrDurability marks operations whose state change could not be made
// durable: the journal append or barrier failed. For admissions the
// engine has already unwound the commit; for other operations the
// in-memory change stands and the process should stop taking writes.
var ErrDurability = errors.New("engine: journal write failed")

// OutcomeKind names one kind of state-changing outcome.
type OutcomeKind uint8

// The outcome vocabulary: what the engine journals, and what Replay
// applies.
const (
	// Admitted is a committed admission: ReqID realised by Solution.
	Admitted OutcomeKind = iota + 1
	// Departed is a released session.
	Departed
	// Repaired is a live session re-realised by Solution (a recovery
	// repair, a Reconf_CP migration, or an explicit Replace).
	Repaired
	// Shed is a session dropped by the recovery ladder.
	Shed
	// MutationsApplied is a validated maintenance batch accepted by
	// Apply. Replay re-applies it without the FailureInjected event or
	// the recovery pass: the outcomes that pass decided follow it.
	MutationsApplied
	// ResidualsInstalled overwrites the residual vectors verbatim. The
	// engine never journals it; a WAL snapshot replays it last, because
	// residuals re-derived by allocating the live sessions can differ
	// from the recorded ones in the last float bits (allocate/release
	// history is order-dependent addition).
	ResidualsInstalled
)

// Outcome is one state change. Only the fields of its Kind are set.
type Outcome struct {
	Kind OutcomeKind
	// ReqID is the session of an Admitted, Departed, Repaired or Shed
	// outcome.
	ReqID int
	// Solution realises the session after an Admitted or Repaired
	// outcome; Solution.Request is the request.
	Solution *core.Solution
	// Mutations is a MutationsApplied outcome's batch.
	Mutations []Mutation
	// Residuals holds a ResidualsInstalled outcome's vectors (see
	// sdn.RawSnapshot).
	Residuals *sdn.Snapshot
}

// Journal receives the engine's state-changing outcomes. Append is
// called on the engine's writer goroutine, already serialised, in
// exactly the order the state changed. Barrier is called from the
// engine's committer goroutine and may overlap appends: it must make
// durable at least every outcome whose append returned before Barrier
// was called, and implementations lock whatever the two share.
type Journal interface {
	// Append records one outcome.
	Append(o Outcome) error
	// Barrier makes every outcome appended before the call durable; the
	// engine releases the acks of the operations they describe only
	// after it returns nil.
	Barrier() error
}

// journalCommitted appends one committed admission and notes on the
// running operation that a barrier is owed and which admission to
// unwind should it fail. A failed append unwinds the commit at once
// (departed again) so the acked state stays equal to the logged state,
// and the caller gets ErrDurability. Runs on the writer goroutine.
func (e *Engine) journalCommitted(req *multicast.Request, sol *core.Solution) error {
	if e.journal == nil {
		return nil
	}
	if jerr := e.journal.Append(Outcome{Kind: Admitted, ReqID: req.ID, Solution: sol}); jerr != nil {
		e.unwind(req.ID)
		return fmt.Errorf("%w: %v", ErrDurability, jerr)
	}
	e.cur.owes, e.cur.admitted, e.cur.admittedID = true, true, req.ID
	return nil
}

// unwind departs an admission the journal could not take. Runs on the
// writer goroutine.
func (e *Engine) unwind(reqID int) {
	if _, derr := e.adm.Depart(reqID); derr == nil {
		e.mutations++
	}
}

// journalOutcomes appends the outcomes of an operation that cannot be
// unwound (departures, replaces, maintenance, recovery and migration
// passes) and notes the owed barrier — one per operation, however many
// outcomes. Runs on the writer goroutine; returns nil without a journal.
func (e *Engine) journalOutcomes(outs ...Outcome) error {
	if e.journal == nil {
		return nil
	}
	for _, o := range outs {
		if jerr := e.journal.Append(o); jerr != nil {
			return fmt.Errorf("%w: %v", ErrDurability, jerr)
		}
	}
	e.cur.owes = true
	return nil
}

// Replay applies logged outcomes in order on the writer goroutine,
// stopping at the first that fails. It is the recovery surface of
// internal/wal, which rebuilds an engine from logged outcomes instead of
// re-running planners: sessions are installed, re-bound and dropped
// verbatim (see core.Admitter.Replay), and a maintenance batch is
// validated and applied whole, as Apply would. Replay never journals,
// emits no events and runs no recovery or migration pass — the log
// already holds what those decided, as the outcomes that follow.
func (e *Engine) Replay(outs ...Outcome) error {
	var err error
	if xerr := e.exec(func() {
		for _, o := range outs {
			if err = e.replay(o); err != nil {
				return
			}
			e.mutations++
		}
	}); xerr != nil {
		return xerr
	}
	return err
}

// replay applies one outcome. Runs on the writer goroutine.
func (e *Engine) replay(o Outcome) error {
	nw := e.adm.Network()
	switch o.Kind {
	case Admitted, Repaired:
		if o.Solution == nil {
			return fmt.Errorf("engine: replay of session %d without a solution", o.ReqID)
		}
		return e.adm.Replay(o.ReqID, o.Solution)
	case Departed, Shed:
		return e.adm.Replay(o.ReqID, nil)
	case MutationsApplied:
		err := applyBatch(nw, o.Mutations)
		// Replay reports no resource events: drain them so the next real
		// Update reports only its own changes.
		nw.DrainResourceEvents()
		return err
	case ResidualsInstalled:
		return nw.Restore(o.Residuals)
	}
	return fmt.Errorf("engine: replay of unknown outcome kind %d", o.Kind)
}

// SnapshotState runs f on the writer goroutine with the network and
// the live table, between operations — the atomic capture point for
// WAL snapshots and state fingerprints. What f sees matches the journal
// up to its last append, which can be ahead of the last barrier (the
// visibility window above). f must only read;
// the lives slice is shared with the admitter (treat the solutions as
// read-only) and must not be retained past f.
func (e *Engine) SnapshotState(f func(nw *sdn.Network, lives []*core.Solution)) error {
	return e.exec(func() { f(e.adm.Network(), e.adm.Lives()) })
}
