// Package engine provides a single-writer admission engine over a
// capacitated SDN. The engine owns the sdn.Network: every mutation —
// allocation on admit, release on depart, maintenance such as failure
// injection — runs under one writer lock, on its caller's goroutine, so
// mutators never race readers (the constraint DESIGN.md §8 puts on
// sdn.Network); "the writer" is whichever caller holds the lock. The
// network changes only through the engine's typed operations — Admit,
// Depart, Apply and Reoptimize — each of which a durable engine
// journals, so replaying the journal reproduces the residuals bit for
// bit. Planning, the expensive part of admission (Dijkstras + KMB per
// request), does not run under the lock: concurrent Admit calls plan
// against residual snapshots and take the lock only to commit, where
// the plan is validated against the live residuals (optimistic
// concurrency: a plan invalidated by a concurrent commit is re-planned
// once against fresh residuals, then rejected).
//
// In sequential mode (Options.Workers <= 1) plan and commit execute as
// one critical section, so admit/reject decisions, trees and costs are
// byte-identical to driving a core.Admitter directly; the determinism
// oracle in engine_test.go pins this. A sequentially-driven engine (one
// in-flight Admit at a time) produces the same decisions at any worker
// count, because a snapshot taken with no in-flight commits equals the
// live residual state.
//
// An in-memory engine starts no goroutine. A journaled one starts one,
// the committer (committer.go), which makes appended records durable and
// releases the acks waiting on them.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/parallel"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// ErrClosed is returned by every operation submitted after Close.
var ErrClosed = errors.New("engine: closed")

// ErrNoPlan marks rejections where the planner proposed no admissible
// tree — the request never reached commit. The chain also carries the
// planner's specific refusal (threshold, compute, unreachable, ...),
// and still satisfies core.IsRejection.
var ErrNoPlan = errors.New("engine: planner found no admissible tree")

// ErrCommitConflict marks rejections where a plan valid on its
// residual snapshot was invalidated by concurrent commits and the
// re-plan budget was exhausted. Distinct from ErrNoPlan so callers —
// and the per-reason rejection counters — can tell planner refusals
// from optimistic-concurrency losses.
var ErrCommitConflict = core.ErrCommitConflict

// Options configures an Engine.
type Options struct {
	// Workers bounds how many Admit calls may plan concurrently.
	// 0 or 1 selects sequential mode: plan and commit run as one
	// atomic writer step, reproducing a core.Admitter exactly.
	// n > 1 allows n concurrent planners against residual snapshots;
	// negative requests one planner slot per CPU.
	Workers int
	// Obs attaches observability: lifecycle counters and per-reason
	// rejection counts (per policy), queue-depth and live-session
	// gauges, sampled plan/commit/clone latencies, and the structured
	// admission-event stream. nil (the default) disables
	// instrumentation; with sampling off no hot path reads the clock.
	Obs *obs.AdmissionObs
	// Recovery enables the self-healing subsystem: after failure
	// injection through Apply moves the network's StructureVersion,
	// the engine automatically repairs or sheds every affected live
	// session under this policy (see internal/recover). nil (the
	// default) leaves damaged sessions alone, preserving the manual
	// fail-release-readmit workflow.
	Recovery *recov.Policy
	// Journal, when set, makes the engine durable: every
	// state-changing outcome is appended to the journal under the writer
	// lock and made durable by the committer goroutine's barrier
	// before the operation acks (see journal.go, committer.go and
	// internal/wal). nil (the default) keeps the engine in-memory.
	Journal Journal
}

// Engine is a single-writer admission engine: one lock guards the
// network and the admission bookkeeping (the shared core.Admitter
// commit layer), while planning fans out across callers. All methods
// are safe for concurrent use.
type Engine struct {
	// mu is the writer lock: every operation on the network and the
	// admission bookkeeping runs under it, on its caller's goroutine (see
	// exec). closed is set under it by Close, or by a panic inside a
	// locked operation, and makes every later operation return ErrClosed.
	mu     sync.Mutex
	closed bool

	adm        *core.Admitter
	obs        *obs.AdmissionObs // nil-safe; shared with adm
	sequential bool
	// planSlots both bounds concurrent planners and hands each one a
	// dedicated scratch slot: a worker owns the arena and snapshot
	// network it drew for the whole plan (including a re-plan after a
	// commit conflict), so concurrent planners never share scratch
	// while both get reused across requests — the snapshot is refilled
	// in place with sdn.CloneInto, so steady-state planning stops
	// allocating per-request clones.
	planSlots chan *planSlot

	// seqArena is the sequential mode's scratch; that mode plans only
	// under the writer lock, so one arena suffices.
	seqArena *core.PlanArena

	// Recovery state (nil unless Options.Recovery was set). rec and
	// lastRec are touched only under the writer lock; recArena is the
	// writer-owned planning scratch of recovery passes.
	rec      *recov.Recoverer
	recArena *core.PlanArena
	lastRec  *recov.Report

	// reconf is non-nil when the planner supports drift-triggered
	// migration of admitted sessions (core.Reconfigurer, e.g.
	// Reconf_CP): after every successful Apply or Reoptimize the writer
	// runs one migration pass. It shares recArena as writer-owned
	// planning scratch — recovery and reconfiguration never overlap.
	reconf core.Reconfigurer

	// journal receives state-changing outcomes before they ack (nil =
	// durability off): appends under the writer lock, Barrier on the
	// committer goroutine (com, see committer.go), which closes done
	// once Close has drained it. cur is the ack of the operation the
	// lock holder is running, where the append helpers note that a
	// barrier is owed; it is touched only under the lock and only with a
	// journal attached.
	journal Journal
	com     *committer
	cur     *ack
	done    chan struct{}

	// mutations counts state changes (commits, departs, maintenance
	// operations) and is touched only under the writer lock. A commit
	// failure is a conflict only if it advanced past the plan's
	// snapshot epoch — otherwise the planner overcommitted and the
	// failure is deterministic, so re-planning the unchanged state
	// would be futile and mislabel the rejection.
	mutations uint64
}

// planSlot is one concurrent planner's reusable scratch: the planning
// arena plus the snapshot destination the writer clones residual state
// into. Solutions never alias the view (trees and server lists are
// value copies), so the view can be overwritten by the slot's next
// request while earlier solutions stay live in the admitted set.
type planSlot struct {
	arena *core.PlanArena
	view  *sdn.Network
}

// New returns an engine owning nw that admits with planner's policy.
// The caller must not mutate nw after handing it over; reads (metrics,
// rendering) remain safe whenever no operation is in flight, or from
// inside SnapshotState.
func New(nw *sdn.Network, planner core.Planner, opts Options) *Engine {
	workers := parallel.Degree(opts.Workers)
	e := &Engine{
		adm:        core.NewAdmitter(nw, planner),
		obs:        opts.Obs,
		sequential: workers <= 1,
		planSlots:  make(chan *planSlot, workers),
		seqArena:   core.NewPlanArena(),
		journal:    opts.Journal,
	}
	for i := 0; i < workers; i++ {
		e.planSlots <- &planSlot{arena: core.NewPlanArena(), view: &sdn.Network{}}
	}
	e.adm.Observe(opts.Obs)
	if opts.Recovery != nil {
		e.rec = recov.New(e.adm, opts.Obs, *opts.Recovery)
		e.recArena = core.NewPlanArena()
	}
	if r, ok := planner.(core.Reconfigurer); ok {
		e.reconf = r
		if e.recArena == nil {
			e.recArena = core.NewPlanArena()
		}
	}
	if e.journal != nil {
		e.com = newCommitter()
		e.done = make(chan struct{})
		go e.commitLoop()
	}
	return e
}

// Close closes the engine: every operation that has not taken the
// writer lock yet, including one racing Close, returns ErrClosed, and
// admits already committed stay allocated. With a journal Close also
// drains the committer, so every operation that ran is barriered and
// acked before Close returns (close the journal's log after the engine,
// never before). Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	if e.com != nil {
		e.com.stop()
		<-e.done
	}
}

// exec runs f under the writer lock on the calling goroutine: one
// critical section, one operation, one ack. With a journal f runs with
// cur set to a pooled ack. An ack that owes a barrier is put to the
// committer before the lock is freed, so the committer sees acks in
// append order, and exec waits for it outside the lock; an ack that owes
// nothing is released at once. exec returns ErrClosed when f never ran
// and the ErrDurability verdict of a failed barrier.
//
// Should f panic, the engine is closed before the lock is freed and the
// panic goes on up the caller's stack: later operations get ErrClosed
// instead of half-applied state, and no caller waits on a holder that
// will not finish.
func (e *Engine) exec(f func()) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	held := true
	defer func() {
		if held {
			e.closed = true
			e.mu.Unlock()
		}
	}()
	var a *ack
	if e.journal != nil {
		a = ackPool.Get().(*ack)
		e.cur = a
	}
	f()
	owes := a != nil && a.owes
	if owes {
		e.com.put(a)
	}
	held = false
	e.mu.Unlock()
	if a == nil {
		return nil
	}
	if owes {
		// The send on the buffered done channel is the committer's last
		// touch of the ack, so recycling it after the receive never races.
		<-a.done
	}
	err := a.jerr
	*a = ack{done: a.done}
	ackPool.Put(a)
	return err
}

// Admit decides request req under the engine's admission policy: on
// admission it returns the realised solution (already allocated); on
// rejection it returns an error satisfying core.IsRejection and leaves
// the network untouched. Any number of goroutines may call Admit
// concurrently; with Workers > 1 their planning overlaps.
func (e *Engine) Admit(req *multicast.Request) (*core.Solution, error) {
	return e.AdmitContext(context.Background(), req)
}

// AdmitContext is Admit with cancellation: ctx aborts planning between
// candidate evaluations (see core.Planner) and between the plan and
// re-plan rounds of the concurrent path. A canceled admission leaves the network untouched,
// is not counted as a rejection, and returns an error for which
// core.IsCanceled holds; once the plan reaches commit, the commit runs
// to completion regardless of ctx, so a request never ends up
// half-admitted. Decisions are identical to Admit while ctx stays
// live.
func (e *Engine) AdmitContext(ctx context.Context, req *multicast.Request) (*core.Solution, error) {
	e.obs.InflightAdd(1)
	defer e.obs.InflightAdd(-1)

	if e.sequential {
		var sol *core.Solution
		var err error
		if xerr := e.exec(func() {
			sol, err = e.adm.Admit(ctx, req, e.seqArena)
			if err == nil {
				e.mutations++
				if err = e.journalCommitted(req, sol); err != nil {
					sol = nil
				}
			}
		}); xerr != nil {
			return nil, xerr
		}
		return sol, err
	}

	slot := <-e.planSlots
	defer func() { e.planSlots <- slot }()

	// Plan against a residual snapshot, commit against the live state.
	for replanned := false; ; replanned = true {
		sol, epoch, err := e.planOnSnapshot(ctx, req, slot)
		if err != nil {
			if core.IsCanceled(err) {
				return nil, err
			}
			return nil, e.reject(req, fmt.Errorf("%w: %w", ErrNoPlan, err))
		}
		committed, stale, cerr := e.tryCommit(req, sol, epoch)
		if cerr == nil || errors.Is(cerr, ErrClosed) || errors.Is(cerr, ErrDurability) {
			return committed, cerr
		}
		if !stale {
			// The plan failed against the very residuals it was computed
			// from: the planner overcommitted. Sequential mode surfaces
			// exactly this error, and re-planning unchanged state would
			// reproduce the same plan — reject as the admitter would.
			return nil, e.reject(req, fmt.Errorf("%w: %w", core.ErrRejected, cerr))
		}
		// Optimistic-concurrency miss: a concurrent commit moved the
		// residuals under our plan. Re-plan once against fresh
		// residuals, then give up.
		e.obs.CommitConflict(req.ID, core.RejectReason(cerr))
		if replanned {
			return nil, e.reject(req, fmt.Errorf("%w: %w: %w", core.ErrRejected, ErrCommitConflict, cerr))
		}
		e.obs.Replanned(req.ID)
	}
}

// planOnSnapshot clones the live residual state into the slot's
// reusable snapshot under the writer lock and plans against it outside
// the lock, using the slot's scratch arena. It also returns the
// mutation epoch the snapshot was taken at, so the commit can tell a
// concurrent invalidation from a deterministic planner overcommit.
func (e *Engine) planOnSnapshot(ctx context.Context, req *multicast.Request, slot *planSlot) (*core.Solution, uint64, error) {
	var epoch uint64
	if xerr := e.exec(func() {
		start := e.obs.Now()
		e.adm.Network().CloneInto(slot.view)
		epoch = e.mutations
		e.obs.CloneDone(start)
	}); xerr != nil {
		return nil, 0, xerr
	}
	sol, err := e.adm.PlanOn(ctx, slot.view, req, slot.arena)
	return sol, epoch, err
}

// tryCommit validates sol against the live residuals under the writer
// lock. The error is nil on success, ErrClosed, ErrDurability, or the
// allocation violation; stale reports whether the live state had moved
// past the plan's snapshot epoch by commit time.
func (e *Engine) tryCommit(req *multicast.Request, sol *core.Solution, epoch uint64) (*core.Solution, bool, error) {
	var out *core.Solution
	var stale bool
	var cerr error
	if xerr := e.exec(func() {
		stale = e.mutations != epoch
		out, cerr = e.adm.Commit(req, sol)
		if cerr == nil {
			e.mutations++
			if cerr = e.journalCommitted(req, out); cerr != nil {
				out, stale = nil, false
			}
		}
	}); xerr != nil {
		return nil, false, xerr
	}
	return out, stale, cerr
}

// reject counts the rejection under the writer lock (classified into a
// canonical reason by the admitter) and returns err for chaining.
// ErrClosed is passed through uncounted.
func (e *Engine) reject(req *multicast.Request, err error) error {
	if errors.Is(err, ErrClosed) {
		return err
	}
	if xerr := e.exec(func() { e.adm.CountRejection(req, err) }); xerr != nil {
		return xerr
	}
	return err
}

// Depart releases the resources of an admitted request (the session
// ended), returning the solution that had realised it so callers can
// also uninstall its flow rules.
func (e *Engine) Depart(reqID int) (*core.Solution, error) {
	var sol *core.Solution
	var err error
	if xerr := e.exec(func() {
		sol, err = e.adm.Depart(reqID)
		if err == nil {
			e.mutations++
			err = e.journalOutcomes(Outcome{Kind: Departed, ReqID: reqID})
		}
	}); xerr != nil {
		return nil, xerr
	}
	return sol, err
}

// Reoptimize re-places the live sessions under the writer lock (see
// core.Admitter.Reoptimize) and returns the moved sessions' new
// solutions, in ascending request-ID order, with the operational cost
// saved. Each move is journaled as a Repaired outcome in that order, so
// replay rebinds the new trees verbatim instead of re-running the pass.
// Like Apply, a successful pass is followed by the planner's migration
// pass when the planner is a core.Reconfigurer.
func (e *Engine) Reoptimize(opts core.Options) (moved []*core.Solution, saved float64, err error) {
	if xerr := e.exec(func() {
		moved, saved, err = e.adm.Reoptimize(opts)
		if len(moved) > 0 {
			// The moves shifted residuals; in-flight plans that straddled
			// them must commit as stale.
			e.mutations++
			outs := make([]Outcome, len(moved))
			for i, sol := range moved {
				outs[i] = Outcome{Kind: Repaired, ReqID: sol.Request.ID, Solution: sol}
			}
			if jerr := e.journalOutcomes(outs...); jerr != nil && err == nil {
				err = jerr
			}
		}
		if err == nil && e.reconf != nil {
			err = e.reconfigureLocked()
		}
	}); xerr != nil {
		return nil, 0, xerr
	}
	return moved, saved, err
}

// Planner returns the engine's planning policy.
func (e *Engine) Planner() core.Planner { return e.adm.Planner() }

// AdmittedCount reports the number of admitted requests. Like
// RejectedCount and LiveCount it reads under the writer lock and, after
// Close, reports the final state.
func (e *Engine) AdmittedCount() int { return e.count(e.adm.AdmittedCount) }

// RejectedCount reports how many requests were rejected.
func (e *Engine) RejectedCount() int { return e.count(e.adm.RejectedCount) }

// LiveCount reports how many admitted requests currently hold
// resources.
func (e *Engine) LiveCount() int { return e.count(e.adm.LiveCount) }

// count reads one counter under the writer lock, closed or not.
func (e *Engine) count(f func() int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return f()
}
