package core

import (
	"context"
	"fmt"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
)

// Admitter is the shared commit half of online admission: it binds a
// Planner to the network it admits onto and owns the whole admit/
// depart lifecycle — plan, allocate, record the live session, count
// the decision. NewAdmitter(nw, planner) with any registered planner is
// the sequential online algorithm; the admission engine
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
// (CountRejection) or re-planned. ctx and arena go to the planner (see
// Planner.Plan); a ctx already done on entry cancels before the plan
// timer starts.
func (a *Admitter) PlanOn(
	ctx context.Context, view *sdn.Network, req *multicast.Request, arena *PlanArena,
) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceled(err)
	}
	start := a.obs.Now()
	// Provably-doomed requests (see FastRejecter) skip the work graph
	// and Steiner machinery entirely; the error is exactly what the
	// full plan would have returned.
	var sol *Solution
	err := a.fastReject(view, req)
	if err == nil {
		sol, err = a.planner.Plan(ctx, view, req, arena)
	}
	if err != nil {
		a.obs.PlanDone(start, req.ID, nil, 0, err)
		return nil, err
	}
	a.obs.PlanDone(start, req.ID, sol.Servers, sol.OperationalCost, nil)
	return sol, nil
}

// PlanOnWith is PlanOn without cancellation. It remains only because
// the benchmark harness (bench/) calls it; everything else calls PlanOn.
func (a *Admitter) PlanOnWith(view *sdn.Network, req *multicast.Request, arena *PlanArena) (*Solution, error) {
	return a.PlanOn(context.Background(), view, req, arena)
}

// Admit decides request req: on admission it returns the realised
// solution (already allocated on the network); on rejection it returns
// ErrRejected (wrapped with the reason) and leaves the network
// untouched. A canceled plan leaves the network untouched too, is not
// counted as a rejection, and returns an error for which IsCanceled
// holds. arena may be nil (see Planner.Plan).
func (a *Admitter) Admit(ctx context.Context, req *multicast.Request, arena *PlanArena) (*Solution, error) {
	sol, err := a.PlanOn(ctx, a.nw, req, arena)
	if err != nil {
		if IsCanceled(err) {
			return nil, err
		}
		a.CountRejection(req, err)
		return nil, err
	}
	sol, err = a.Commit(req, sol)
	if err != nil {
		// Planners only propose trees that fit the residual view; a
		// commit failure here means per-link aggregation of
		// back-tracking traffic exceeded a residual, so reject.
		err = fmt.Errorf("%w: %w", ErrRejected, err)
		a.CountRejection(req, err)
		return nil, err
	}
	return sol, nil
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

// CountRejection records a rejection of req — Admit's own, or one
// decided outside it (the engine's snapshot-planning path, where plan
// and commit are separate steps). err is classified into a canonical
// reason (RejectReason) for the per-reason counters and the Rejected
// event.
func (a *Admitter) CountRejection(req *multicast.Request, err error) {
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

// Replay sets session reqID to sol without planning: a nil sol drops
// the session (releasing its bundle), a live session is re-bound to sol,
// and any other sol is installed as a newly committed session. It is the
// replay primitive of the write-ahead log (internal/wal) — recovery
// rebuilds the live table from logged solutions instead of re-running
// planners, so a replayed engine is byte-identical to the pre-crash one
// regardless of planner or policy. Replay deliberately skips the
// observability hooks: it reconstructs state, not history, and must not
// inflate the lifecycle counters or re-emit admission events. A re-bind
// whose allocation fails re-installs the original bundle, so the table
// never ends up half-swapped.
func (a *Admitter) Replay(reqID int, sol *Solution) error {
	if sol == nil {
		_, err := a.lives.depart(reqID)
		return err
	}
	old, live := a.lives.solBy[reqID]
	if live {
		if _, err := a.lives.depart(reqID); err != nil {
			return err
		}
	}
	alloc := AllocationFor(sol.Request, sol.Tree)
	if err := a.nw.Allocate(alloc); err != nil {
		if live {
			oldAlloc := AllocationFor(old.Request, old.Tree)
			if rerr := a.nw.Allocate(oldAlloc); rerr == nil {
				a.lives.record(old.Request, old, oldAlloc)
			}
		}
		return err
	}
	a.lives.record(sol.Request, sol, alloc)
	if !live {
		a.admitted++
	}
	return nil
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
