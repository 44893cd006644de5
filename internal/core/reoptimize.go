package core

import (
	"fmt"

	"nfvmcast/internal/sdn"
)

// Reoptimize is a maintenance pass over admitted sessions (an
// extension beyond the paper): online admission decisions degrade as
// the network fills, so operators periodically re-place long-lived
// sessions. For each session in turn the pass releases its resources,
// re-solves it with Appro_Multi_Cap on the residual network, and
// keeps the new plan only when it is strictly cheaper; otherwise the
// original allocation is restored (always possible — releasing first
// only frees capacity). The network is left consistent after every
// step, so the pass can run concurrently with admission stops between
// requests.
//
// It returns the (possibly replaced) sessions in the same order, the
// number improved, and the total operational cost saved.
//
// When the sessions are managed by an Admitter or an engine, inform it
// of each replacement via its Replace method so a later Depart releases
// the new allocation, not the stale one.
func Reoptimize(
	nw *sdn.Network, sessions []*Solution, opts Options,
) (out []*Solution, improved int, saved float64, err error) {
	opts.Capacitated = true
	out = make([]*Solution, len(sessions))
	copy(out, sessions)
	for i, sol := range out {
		if sol == nil || sol.Request == nil || sol.Tree == nil {
			return nil, 0, 0, fmt.Errorf("core: reoptimize: session %d is incomplete", i)
		}
		oldAlloc := AllocationFor(sol.Request, sol.Tree)
		if err := nw.Release(oldAlloc); err != nil {
			return nil, 0, 0, fmt.Errorf("core: reoptimize session %d: release: %w",
				sol.Request.ID, err)
		}
		restore := func() error {
			if aerr := nw.Allocate(oldAlloc); aerr != nil {
				return fmt.Errorf("core: reoptimize session %d: restore: %w",
					sol.Request.ID, aerr)
			}
			return nil
		}
		fresh, serr := ApproMulti(nw, sol.Request, opts)
		if serr != nil || fresh.OperationalCost >= sol.OperationalCost-1e-9 {
			if rerr := restore(); rerr != nil {
				return nil, 0, 0, rerr
			}
			continue
		}
		if aerr := nw.Allocate(AllocationFor(sol.Request, fresh.Tree)); aerr != nil {
			// The aggregated per-link demand of the new tree did not
			// fit (back-tracking doubling); keep the old plan.
			if rerr := restore(); rerr != nil {
				return nil, 0, 0, rerr
			}
			continue
		}
		saved += sol.OperationalCost - fresh.OperationalCost
		improved++
		out[i] = fresh
	}
	return out, improved, saved, nil
}
