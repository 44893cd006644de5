// Package engine provides a single-writer admission engine over a
// capacitated SDN. The engine owns the sdn.Network: every mutation —
// allocation on admit, release on depart, maintenance such as failure
// injection — executes on one writer goroutine, so mutators never race
// readers (the constraint DESIGN.md §8 puts on sdn.Network). Planning,
// the expensive part of admission (Dijkstras + KMB per request), does
// not run on the writer: concurrent Admit calls plan on their own
// goroutines against residual snapshots and only re-enter the writer
// to commit, where the plan is validated against the live residuals
// (optimistic concurrency: a plan invalidated by a concurrent commit
// is re-planned once against fresh residuals, then rejected).
//
// In sequential mode (Options.Workers <= 1) plan and commit execute as
// one atomic step on the writer, so admit/reject decisions, trees and
// costs are byte-identical to driving a core.Admitter directly; the
// determinism oracle in engine_test.go pins this. A sequentially-driven engine (one
// in-flight Admit at a time) produces the same decisions at any worker
// count, because a snapshot taken with no in-flight commits equals the
// live residual state.
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
	// injection through Update moves the network's StructureVersion,
	// the engine automatically repairs or sheds every affected live
	// session under this policy (see internal/recover). nil (the
	// default) leaves damaged sessions alone, preserving the manual
	// fail-release-readmit workflow.
	Recovery *recov.Policy
	// BatchWindow bounds how many finished plans one commit epoch may
	// absorb (see batch.go): the writer drains up to this many waiting
	// commits per loop iteration, validates them in ascending
	// request-ID order and bumps the network's MutationVersion once
	// for the whole epoch. 0 or 1 keeps per-commit epochs (the
	// pre-batching behaviour); the window is ignored in sequential
	// mode, where plan and commit are one atomic step. Decisions of a
	// sequentially-driven engine are byte-identical across windows.
	BatchWindow int
	// Journal, when set, makes the engine durable: every
	// state-changing outcome is appended to the journal on the writer
	// goroutine and made durable by the committer goroutine's barrier
	// before the operation acks (see journal.go, committer.go and
	// internal/wal). nil (the default) keeps the engine in-memory.
	Journal Journal
}

// Engine is a single-writer admission engine: one goroutine owns the
// network and the admission bookkeeping (the shared core.Admitter
// commit layer), while planning fans out across callers. All methods
// are safe for concurrent use.
type Engine struct {
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

	// opPool recycles writer-op envelopes (see exec) so the hot
	// plan/commit path does not allocate an ack channel per writer
	// round-trip.
	opPool sync.Pool

	// seqArena is the single-writer mode's scratch; only the writer
	// goroutine plans in that mode, so one arena suffices.
	seqArena *core.PlanArena

	// Epoch batching (see batch.go). batchWindow > 1 routes concurrent
	// commits through the ticket channel; batchScratch is the writer's
	// reusable epoch buffer.
	batchWindow  int
	commits      chan *commitTicket
	batchScratch []*commitTicket

	// Recovery state (nil unless Options.Recovery was set). rec and
	// lastRec are touched only on the writer goroutine; recArena is the
	// writer-owned planning scratch of recovery passes.
	rec      *recov.Recoverer
	recArena *core.PlanArena
	lastRec  *recov.Report

	// reconf is non-nil when the planner supports drift-triggered
	// migration of admitted sessions (core.Reconfigurer, e.g.
	// Reconf_CP): after every successful Update mutation the writer
	// runs one migration pass. It shares recArena as writer-owned
	// planning scratch — recovery and reconfiguration never overlap.
	reconf core.Reconfigurer

	// journal receives state-changing outcomes before they ack (nil =
	// durability off): appends on the writer goroutine, Barrier on the
	// committer goroutine (com, see committer.go). cur is the ack of the
	// operation the writer is running — where the append helpers note
	// that a barrier is owed — and staged collects one writer
	// iteration's owing acks for the hand-off; both are touched only on
	// the writer goroutine and only with a journal attached.
	journal Journal
	com     *committer
	cur     *ack
	staged  []*ack

	// mutations counts state changes (commits, departs, replaces,
	// updates) and is touched only on the writer goroutine. A commit
	// failure is a conflict only if it advanced past the plan's
	// snapshot epoch — otherwise the planner overcommitted and the
	// failure is deterministic, so re-planning the unchanged state
	// would be futile and mislabel the rejection.
	mutations uint64

	ops       chan *wop
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
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

// wop is a pooled writer operation: the closure to run on the writer
// goroutine and a reusable ack (buffered channel plus, with a journal,
// the durability bookkeeping of committer.go). Recycling the envelope
// keeps exec allocation-free apart from the caller's closure.
type wop struct {
	f func()
	ack
}

// New returns an engine owning nw that admits with planner's policy.
// The caller must not mutate nw after handing it over; reads (metrics,
// rendering) remain safe whenever no Admit/Depart/Update is in flight,
// or from inside Update.
func New(nw *sdn.Network, planner core.Planner, opts Options) *Engine {
	workers := parallel.Degree(opts.Workers)
	window := opts.BatchWindow
	if window < 1 {
		window = 1
	}
	e := &Engine{
		adm:         core.NewAdmitter(nw, planner),
		obs:         opts.Obs,
		sequential:  workers <= 1,
		planSlots:   make(chan *planSlot, workers),
		seqArena:    core.NewPlanArena(),
		batchWindow: window,
		journal:     opts.Journal,
		commits:     make(chan *commitTicket),
		ops:         make(chan *wop),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	e.opPool.New = func() any { return &wop{ack: ack{done: make(chan struct{}, 1)}} }
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
	if e.journal == nil {
		go e.writer()
	} else {
		e.com = newCommitter()
		go e.journaledWriter()
		go e.commitLoop()
	}
	return e
}

// writer is the single goroutine through which every mutation of the
// network and the admission bookkeeping flows.
func (e *Engine) writer() {
	defer close(e.done)
	for {
		select {
		case op := <-e.ops:
			op.f()
			op.done <- struct{}{}
		case t := <-e.commits:
			e.commitEpoch(t)
		case <-e.quit:
			return
		}
	}
}

// journaledWriter is the writer of an engine with a journal: the same
// loop, except that an operation which appended to the journal is not
// acked here but handed to the committer (see committer.go), and the
// writer goes straight on to the next operation.
func (e *Engine) journaledWriter() {
	defer e.com.stop()
	for {
		select {
		case op := <-e.ops:
			e.cur = &op.ack
			op.f()
			e.settle(&op.ack)
		case t := <-e.commits:
			e.commitEpoch(t)
		case <-e.quit:
			return
		}
		e.handOff()
	}
}

// Close stops the writer goroutine and waits for it to exit; with a
// journal it also drains the committer, so every operation the writer
// had taken is barriered and acked before Close returns (close the
// journal's log after the engine, never before). Admits already
// committed stay allocated; operations submitted after (or racing)
// Close return ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.quit) })
	<-e.done
}

// exec runs f on the writer goroutine and waits for its ack — with a
// journal, for the barrier covering whatever f appended. It returns
// ErrClosed when the op never ran and the ErrDurability verdict of a
// failed barrier. The op envelope is pooled; the ack on the buffered
// done channel is the engine's last touch of the envelope, so recycling
// after the receive never races the writer or the committer.
func (e *Engine) exec(f func()) error {
	op := e.opPool.Get().(*wop)
	op.f = f
	select {
	case e.ops <- op:
		<-op.done
		jerr := op.jerr
		op.f, op.ack = nil, ack{done: op.done}
		e.opPool.Put(op)
		return jerr
	case <-e.quit:
		op.f = nil
		e.opPool.Put(op)
		return ErrClosed
	}
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
	// residuals under our plan. Re-plan once against fresh residuals,
	// then give up.
	e.obs.CommitConflict(req.ID, core.RejectReason(cerr))
	e.obs.Replanned(req.ID)
	sol, epoch, err = e.planOnSnapshot(ctx, req, slot)
	if err != nil {
		if core.IsCanceled(err) {
			return nil, err
		}
		return nil, e.reject(req, fmt.Errorf("%w: %w", ErrNoPlan, err))
	}
	committed, stale, cerr = e.tryCommit(req, sol, epoch)
	if cerr == nil || errors.Is(cerr, ErrClosed) || errors.Is(cerr, ErrDurability) {
		return committed, cerr
	}
	if !stale {
		return nil, e.reject(req, fmt.Errorf("%w: %w", core.ErrRejected, cerr))
	}
	e.obs.CommitConflict(req.ID, core.RejectReason(cerr))
	return nil, e.reject(req, fmt.Errorf("%w: %w: %w", core.ErrRejected, ErrCommitConflict, cerr))
}

// planOnSnapshot clones the live residual state into the slot's
// reusable snapshot on the writer and plans against it on the calling
// goroutine, using the slot's scratch arena. It also returns the
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

// tryCommit validates sol against the live residuals on the writer.
// The error is nil on success, ErrClosed, ErrDurability, or the
// allocation violation;
// stale reports whether the live state had moved past the plan's
// snapshot epoch by commit time. With BatchWindow > 1 the commit joins
// the writer's next epoch batch (see batch.go) — same verdicts, with
// MutationVersion amortized across the epoch.
func (e *Engine) tryCommit(req *multicast.Request, sol *core.Solution, epoch uint64) (*core.Solution, bool, error) {
	if e.batchWindow > 1 {
		return e.submitCommit(req, sol, epoch)
	}
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

// reject counts the rejection on the writer (classified into a
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

// Replace records that an admitted request is now realised by sol (see
// core.Admitter.Replace); run the re-placement itself inside Update.
func (e *Engine) Replace(reqID int, sol *core.Solution) error {
	var err error
	if xerr := e.exec(func() {
		err = e.adm.Replace(reqID, sol)
		if err == nil {
			e.mutations++
			err = e.journalOutcomes(Outcome{Kind: Repaired, ReqID: reqID, Solution: sol})
		}
	}); xerr != nil {
		return xerr
	}
	return err
}

// Update runs f against the engine's network on the writer goroutine —
// the hatch for maintenance that must not race in-flight commits:
// failure injection, re-optimisation passes, metric snapshots. When f
// alters the network's structure (failure injection bumps
// StructureVersion), a FailureInjected event is emitted and counted,
// and — when the engine was built with a recovery policy — a recovery
// pass repairs or sheds every affected live session before Update
// returns (inspect it with LastRecovery).
func (e *Engine) Update(f func(nw *sdn.Network) error) error {
	return e.UpdateContext(context.Background(), f)
}

// UpdateContext is Update with cancellation. A ctx already done on
// entry aborts before f runs; once f has run, ctx only bounds the
// automatic recovery pass (checked between sessions — see
// recov.Recoverer.Recover), whose cancellation error is returned after
// f's nil. Sessions the canceled pass did not reach stay damaged but
// live; RecoverNow resumes them.
func (e *Engine) UpdateContext(ctx context.Context, f func(nw *sdn.Network) error) error {
	return e.updateContext(ctx, f, nil)
}

// updateContext is the shared writer-side body of Update and Apply.
// jmuts, when non-empty, is the typed description of what f does (Apply
// passes its validated batch); it is journaled as a mutation_applied
// record after f succeeds, before the automatic recovery pass — replay
// re-applies the batch (Replay) and then recovery's own repaired/shed
// outcomes in log order. A raw Update closure has no
// typed description, so with a journal attached its effects would be
// invisible to replay; such updates are not journaled (documented on
// Apply) and durable deployments must mutate through Apply.
func (e *Engine) updateContext(ctx context.Context, f func(nw *sdn.Network) error, jmuts []Mutation) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("engine: update canceled: %w", cerr)
	}
	var err error
	if xerr := e.exec(func() {
		nw := e.adm.Network()
		before := nw.StructureVersion()
		err = f(nw)
		// f had mutable access; count the epoch conservatively so an
		// in-flight plan straddling this update commits as stale.
		e.mutations++
		if err == nil && len(jmuts) > 0 {
			err = e.journalOutcomes(Outcome{Kind: MutationsApplied, Mutations: jmuts})
		}
		if after := nw.StructureVersion(); after != before {
			detail := fmt.Sprintf("structure version %d -> %d", before, after)
			if s := describeEvents(nw.DrainResourceEvents()); s != "" {
				detail += ": " + s
			}
			e.obs.FailureInjected(detail)
			if rerr := e.recoverLocked(ctx); rerr != nil && err == nil {
				err = rerr
			}
		}
		if err == nil && e.reconf != nil {
			err = e.reconfigureLocked()
		}
	}); xerr != nil {
		return xerr
	}
	return err
}

// Planner returns the engine's planning policy.
func (e *Engine) Planner() core.Planner { return e.adm.Planner() }

// AdmittedCount reports the number of admitted requests.
func (e *Engine) AdmittedCount() int {
	var n int
	_ = e.exec(func() { n = e.adm.AdmittedCount() })
	return n
}

// RejectedCount reports how many requests were rejected.
func (e *Engine) RejectedCount() int {
	var n int
	_ = e.exec(func() { n = e.adm.RejectedCount() })
	return n
}

// LiveCount reports how many admitted requests currently hold
// resources.
func (e *Engine) LiveCount() int {
	var n int
	_ = e.exec(func() { n = e.adm.LiveCount() })
	return n
}
