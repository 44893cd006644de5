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

// Journal receives the engine's state-changing outcomes. The five
// append methods are called on the engine's writer goroutine, already
// serialised. Barrier is called from the engine's committer goroutine
// and may overlap appends: it must make durable at least every record
// whose append returned before Barrier was called, and implementations
// lock whatever the two share.
type Journal interface {
	// Admitted records a committed admission (req realised by sol).
	Admitted(req *multicast.Request, sol *core.Solution) error
	// Departed records a released session.
	Departed(reqID int) error
	// Repaired records a session re-realised by sol (a recovery repair
	// or an explicit Replace after re-optimisation).
	Repaired(reqID int, sol *core.Solution) error
	// Shed records a session dropped by the recovery ladder.
	Shed(reqID int) error
	// MutationsApplied records a validated maintenance batch accepted
	// by Apply.
	MutationsApplied(muts []Mutation) error
	// Barrier makes every record appended before the call durable; the
	// engine releases the acks of the operations those records describe
	// only after it returns nil.
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
	if jerr := e.journal.Admitted(req, sol); jerr != nil {
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

// journalAfter appends the record(s) of an operation that cannot be
// unwound (departures, replaces, maintenance, recovery and migration
// passes) and notes the owed barrier — one per operation, however many
// records. Runs on the writer goroutine; returns nil without a journal.
func (e *Engine) journalAfter(append func(Journal) error) error {
	if e.journal == nil {
		return nil
	}
	if jerr := append(e.journal); jerr != nil {
		return fmt.Errorf("%w: %v", ErrDurability, jerr)
	}
	e.cur.owes = true
	return nil
}

// Replay surface. Recovery (internal/wal) rebuilds an engine from
// logged outcomes instead of re-running planners: Restore installs a
// logged solution verbatim, RestoreReplace/RestoreDrop replay repairs
// and departures, and RestoreApply re-applies maintenance batches with
// the failure-injection side effects (events, automatic recovery,
// journaling) suppressed — the log already contains what recovery
// decided the first time, as repaired/shed records that follow. None
// of the Restore methods touch the journal: replayed records are
// already in the log.

// Restore re-installs a previously-committed session without planning
// (see core.Admitter.Restore). Replay only: restoring a request whose
// ID is already live corrupts the table.
func (e *Engine) Restore(req *multicast.Request, sol *core.Solution) error {
	var err error
	if xerr := e.exec(func() {
		err = e.adm.Restore(req, sol)
		if err == nil {
			e.mutations++
		}
	}); xerr != nil {
		return xerr
	}
	return err
}

// RestoreReplace replays a repair/re-optimisation outcome: session
// reqID swaps to sol's realisation.
func (e *Engine) RestoreReplace(reqID int, sol *core.Solution) error {
	var err error
	if xerr := e.exec(func() {
		err = e.adm.RestoreReplace(reqID, sol)
		if err == nil {
			e.mutations++
		}
	}); xerr != nil {
		return xerr
	}
	return err
}

// RestoreDrop replays a departure or shed: session reqID releases its
// resources and is forgotten.
func (e *Engine) RestoreDrop(reqID int) error {
	var err error
	if xerr := e.exec(func() {
		err = e.adm.RestoreDrop(reqID)
		if err == nil {
			e.mutations++
		}
	}); xerr != nil {
		return xerr
	}
	return err
}

// RestoreApply replays a maintenance batch: the same validate-all-
// then-apply-all semantics as Apply, but without the FailureInjected
// event, the automatic recovery pass, or journaling — replay applies
// the logged recovery outcomes instead of re-deciding them. Resource
// events drained so the next real Update reports only its own changes.
func (e *Engine) RestoreApply(muts ...Mutation) error {
	var err error
	if xerr := e.exec(func() {
		nw := e.adm.Network()
		for i, m := range muts {
			if reason := validateMutation(nw, m); reason != "" {
				err = &MalformedMutationError{Index: i, Mutation: m, Reason: reason}
				return
			}
		}
		for _, m := range muts {
			if aerr := applyMutation(nw, m); aerr != nil {
				err = fmt.Errorf("engine: restore-apply %s: %w", m, aerr)
				return
			}
		}
		nw.DrainResourceEvents()
		e.mutations++
	}); xerr != nil {
		return xerr
	}
	return err
}

// RestoreResiduals overwrites the network's residual vectors with the
// exact values a snapshot recorded (see sdn.RawSnapshot): after the
// live sessions have been Restored, the re-derived residuals can differ
// from the originals in the last float bits (allocate/release history
// is order-dependent addition), so recovery finishes by installing the
// recorded vectors verbatim. Replay only.
func (e *Engine) RestoreResiduals(linkFree []float64, srvFree map[int]float64) error {
	var err error
	if xerr := e.exec(func() {
		err = e.adm.Network().Restore(sdn.RawSnapshot(linkFree, srvFree))
		if err == nil {
			e.mutations++
		}
	}); xerr != nil {
		return xerr
	}
	return err
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
