package core

import (
	"context"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
)

// Admitter is the shared commit half of online admission: it binds a
// Planner to the network it admits onto and owns the whole admit/
// depart lifecycle — plan, allocate, record the live session, count
// the decision. OnlineCP, OnlineSP, OnlineSPStatic and OnlineCPK are
// thin wrappers that pair it with their planner; the admission engine
// (internal/engine) drives the same machinery with planning moved onto
// snapshots.
//
// An Admitter is not safe for concurrent use: exactly one goroutine
// may call its methods at a time (the engine's single writer, or a
// plain sequential driver). The exception is PlanOn, which only
// touches the planner and the (concurrency-safe) observability hooks,
// so the engine may call it from planner goroutines.
type Admitter struct {
	nw      *sdn.Network
	planner Planner
	lives   *liveTable
	obs     *obs.AdmissionObs // nil-safe hooks; nil = observability off

	admitted int // monotone: departed sessions stay counted but are not retained
	rejected int
}

// NewAdmitter returns an admitter committing planner's proposals onto
// nw.
func NewAdmitter(nw *sdn.Network, planner Planner) *Admitter {
	return &Admitter{nw: nw, planner: planner, lives: newLiveTable(nw)}
}

// Observe attaches observability hooks: per-policy accept/reject
// counters (with canonical reasons), the live-session gauge, sampled
// latencies and the admission-event stream. Attach before the first
// Admit; a nil AdmissionObs (or never calling Observe) disables
// instrumentation at the cost of one nil check per hook.
func (a *Admitter) Observe(o *obs.AdmissionObs) { a.obs = o }

// Network returns the network this admitter allocates on.
func (a *Admitter) Network() *sdn.Network { return a.nw }

// Planner returns the planning half of the algorithm.
func (a *Admitter) Planner() Planner { return a.planner }

// PlanOn runs the planner for req against view (the live network or a
// residual snapshot) with instrumentation: the plan counter, sampled
// planner latency, and an AdmitPlanned event on success. It does not
// count rejections — the caller decides whether a failed plan is final
// (CountRejection) or re-planned.
func (a *Admitter) PlanOn(view *sdn.Network, req *multicast.Request) (*Solution, error) {
	return a.PlanOnWith(view, req, nil)
}

// PlanOnWith is PlanOn with a caller-owned scratch arena, forwarded to
// the planner when it implements ArenaPlanner (and ignored otherwise).
// The engine keeps one arena per planner slot so concurrent plans
// reuse scratch without sharing it.
func (a *Admitter) PlanOnWith(view *sdn.Network, req *multicast.Request, arena *PlanArena) (*Solution, error) {
	return a.PlanOnContext(context.Background(), view, req, arena)
}

// Admit decides request req: on admission it returns the realised
// solution (already allocated on the network); on rejection it
// returns ErrRejected (wrapped with the reason) and leaves the network
// untouched.
func (a *Admitter) Admit(req *multicast.Request) (*Solution, error) {
	return a.AdmitWith(req, nil)
}

// AdmitWith is Admit with a caller-owned scratch arena for the plan
// step (see PlanOnWith). Decisions are identical to Admit.
func (a *Admitter) AdmitWith(req *multicast.Request, arena *PlanArena) (*Solution, error) {
	return a.AdmitContext(context.Background(), req, arena)
}

// Commit validates a planned solution against the network's current
// residuals by allocating it; on success the session is recorded live.
// It does not count a failure as a rejection — callers that re-plan on
// commit conflicts (the engine's optimistic-concurrency path) decide
// that via CountRejection.
func (a *Admitter) Commit(req *multicast.Request, sol *Solution) (*Solution, error) {
	start := a.obs.Now()
	alloc := AllocationFor(req, sol.Tree)
	if err := a.nw.Allocate(alloc); err != nil {
		return nil, err
	}
	a.lives.record(req, sol, alloc)
	a.admitted++
	a.obs.CommitDone(start, req.ID, sol.Servers, sol.OperationalCost)
	return sol, nil
}

// CountRejection records a rejection of req decided outside Admit (the
// engine's snapshot-planning path, where plan and commit are separate
// steps). err is classified into a canonical reason (RejectReason) for
// the per-reason counters and the Rejected event.
func (a *Admitter) CountRejection(req *multicast.Request, err error) {
	a.countRejection(req, err)
}

func (a *Admitter) countRejection(req *multicast.Request, err error) {
	a.rejected++
	a.obs.RejectedReason(req.ID, RejectReason(err))
}

// Depart releases the resources of an admitted request (the session
// ended). It returns the solution that had realised the request so
// callers can also uninstall its flow rules.
func (a *Admitter) Depart(reqID int) (*Solution, error) {
	sol, err := a.lives.depart(reqID)
	if err != nil {
		return nil, err
	}
	a.obs.DepartDone(reqID)
	return sol, nil
}

// Restore re-installs a previously-committed session without
// planning: sol's resource bundle is allocated and the session
// recorded live, exactly as Commit left it. It is the replay primitive
// of the write-ahead log (internal/wal) — recovery rebuilds the live
// table from logged solutions instead of re-running planners, so a
// replayed engine is byte-identical to the pre-crash one regardless of
// planner or policy. Restore deliberately skips the observability
// hooks: replay reconstructs state, not history, and must not inflate
// the lifecycle counters or re-emit admission events.
func (a *Admitter) Restore(req *multicast.Request, sol *Solution) error {
	alloc := AllocationFor(req, sol.Tree)
	if err := a.nw.Allocate(alloc); err != nil {
		return err
	}
	a.lives.record(req, sol, alloc)
	a.admitted++
	return nil
}

// RestoreReplace is the replay form of a repair or re-optimisation
// outcome: the live session reqID releases its current bundle and is
// re-recorded as realised by sol (allocated fresh). On an allocation
// failure the original bundle is re-installed, so the table never ends
// up half-swapped.
func (a *Admitter) RestoreReplace(reqID int, sol *Solution) error {
	old, err := a.lives.depart(reqID)
	if err != nil {
		return err
	}
	alloc := AllocationFor(sol.Request, sol.Tree)
	if err := a.nw.Allocate(alloc); err != nil {
		oldAlloc := AllocationFor(old.Request, old.Tree)
		if rerr := a.nw.Allocate(oldAlloc); rerr == nil {
			a.lives.record(old.Request, old, oldAlloc)
		}
		return err
	}
	a.lives.record(sol.Request, sol, alloc)
	return nil
}

// RestoreDrop is the replay form of a departure or shed: the live
// session's bundle is released and the session forgotten, without the
// observability hooks (see Restore).
func (a *Admitter) RestoreDrop(reqID int) error {
	_, err := a.lives.depart(reqID)
	return err
}

// Replace records that an admitted request is now realised by sol
// (its ID must match a live session) — used after Reoptimize, which
// re-places sessions directly on the network. A later Depart then
// releases the new allocation.
func (a *Admitter) Replace(reqID int, sol *Solution) error {
	return a.lives.replace(reqID, sol)
}

// LiveCount reports how many admitted requests currently hold
// resources.
func (a *Admitter) LiveCount() int { return a.lives.live() }

// Lives returns the solutions currently holding resources, in
// ascending request-ID order. Departed and shed sessions are excluded,
// so recomputing every returned tree's allocation must exactly account
// for capacity minus residual on every link and server — the
// conservation invariant the scenario harness and the engine fuzz
// targets check continuously.
func (a *Admitter) Lives() []*Solution { return a.lives.solutions(false) }

// Admitted returns the same live sessions as Lives in the order they
// were recorded live — admission order. A session that has departed is
// no longer retained (AdmittedCount still counts it): an admitter
// serving a long request stream holds only what is live.
func (a *Admitter) Admitted() []*Solution { return a.lives.solutions(true) }

// AdmittedCount reports |S(k)|, departed sessions included.
func (a *Admitter) AdmittedCount() int { return a.admitted }

// RejectedCount reports how many requests were rejected.
func (a *Admitter) RejectedCount() int { return a.rejected }
