package core

import "fmt"

// Reoptimize is a maintenance pass over the admitter's live sessions
// (an extension beyond the paper): online admission decisions degrade
// as the network fills, so operators periodically re-place long-lived
// sessions. For each live session in ascending request-ID order the
// pass releases its resources, re-solves it with Appro_Multi_Cap on the
// residual network, and rebinds the new plan only when it is strictly
// cheaper and fits. A session that stays put gets the residuals back bit
// for bit from a snapshot taken before its release: re-allocating the
// bundle just released is float addition, which need not round-trip,
// and a journal that records only the moved sessions could not
// reproduce that drift.
//
// It returns the moved sessions' new solutions in ascending request-ID
// order and the total operational cost saved. The live table records
// each move, so a later Depart releases the new allocation. An error (a
// recorded allocation the network cannot release, or a snapshot it
// cannot restore) stops the pass; the sessions moved before it stay
// moved and are returned.
func (a *Admitter) Reoptimize(opts Options) (moved []*Solution, saved float64, err error) {
	opts.Capacitated = true
	for _, sol := range a.Lives() {
		id := sol.Request.ID
		before := a.nw.Snapshot()
		if err := a.ReleaseLive(id); err != nil {
			return moved, saved, fmt.Errorf("core: reoptimize session %d: release: %w", id, err)
		}
		fresh, serr := ApproMulti(a.nw, sol.Request, opts)
		if serr != nil || fresh.OperationalCost >= sol.OperationalCost-1e-9 || a.Rebind(id, fresh) != nil {
			// No cheaper plan, or its aggregated per-link demand did not
			// fit (back-tracking doubling): keep the old plan.
			if rerr := a.nw.Restore(before); rerr != nil {
				return moved, saved, fmt.Errorf("core: reoptimize session %d: restore: %w", id, rerr)
			}
			continue
		}
		saved += sol.OperationalCost - fresh.OperationalCost
		moved = append(moved, fresh)
	}
	return moved, saved, nil
}
