package core

import (
	"context"
	"fmt"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// Planner is the pure planning half of an admission algorithm: given a
// network view and a request it proposes a solution (or an
// ErrRejected-wrapped refusal) without touching residual state. The
// view may be the live network or an independent snapshot of it —
// planners must work against either, which is what lets the admission
// engine fan planning out across goroutines while a single writer owns
// the real network.
//
// Implementations must be safe for concurrent Plan calls as long as
// every call gets its own view or a view no goroutine mutates; any
// internal memoisation (see SPStaticPlanner) must be internally
// synchronised.
type Planner interface {
	// Name identifies the algorithm (for diagnostics and series labels).
	Name() string
	// Plan proposes a solution for req against the residual state of
	// nw, read-only. A policy refusal satisfies IsRejection. ctx is
	// checked between candidate evaluations: once it is done, Plan
	// returns an error for which IsCanceled holds (never a rejection),
	// and while it stays live the result does not depend on it. arena is
	// caller-owned scratch (one per goroutine, reused across calls); a
	// nil arena draws one from a shared pool, with identical results.
	Plan(ctx context.Context, nw *sdn.Network, req *multicast.Request, arena *PlanArena) (*Solution, error)
}

// ApproCapPlanner adapts the offline Appro_Multi_Cap algorithm to the
// Planner interface, turning the Fig. 7 sequential-admission loop
// (solve capacitated, then allocate) into the same plan/commit
// lifecycle the online algorithms use. Options.Capacitated is forced
// on: planning against residual capacities is what makes the plan
// commit-table.
type ApproCapPlanner struct {
	opts Options
}

// NewApproCapPlanner returns an Appro_Multi_Cap planner with the given
// options (K, Workers, ...); Capacitated is forced to true.
func NewApproCapPlanner(opts Options) *ApproCapPlanner {
	opts.Capacitated = true
	return &ApproCapPlanner{opts: opts}
}

// Name identifies the algorithm.
func (p *ApproCapPlanner) Name() string { return "Appro_Multi_Cap" }

// Plan solves req with Appro_Multi_Cap on the residual network,
// checking ctx between candidate server subsets (the arena is unused:
// Appro_Multi keeps its own per-worker scratch). Infeasibility is an
// admission refusal here (the sequential-admission reading of the
// offline algorithm), so errors satisfy IsRejection while still
// matching the original sentinel via errors.Is.
func (p *ApproCapPlanner) Plan(
	ctx context.Context, nw *sdn.Network, req *multicast.Request, _ *PlanArena,
) (*Solution, error) {
	sol, err := ApproMultiContext(ctx, nw, req, p.opts)
	if err != nil {
		if IsCanceled(err) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", ErrRejected, err)
	}
	return sol, nil
}
