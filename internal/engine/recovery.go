package engine

import (
	"context"
	"fmt"
	"strings"

	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// Recovery integration: when the engine is built with a recovery
// policy (Options.Recovery / WithRecovery), every structural change
// applied through Update triggers a recovery pass on the writer
// goroutine, inline with the update — so by the time Update returns,
// every affected live session is repaired or shed and no concurrent
// Admit ever plans against a half-recovered state. Recovery runs
// sessions in ascending request-ID order and plans sequentially on the
// writer, which makes its outcomes independent of the engine's worker
// count (pinned by the recovery determinism oracle).

// recoverLocked runs one recovery pass. Caller must be on the writer
// goroutine.
func (e *Engine) recoverLocked(ctx context.Context) error {
	if e.rec == nil {
		return nil
	}
	rep, err := e.rec.Recover(ctx, e.recArena)
	e.lastRec = rep
	if len(rep.Outcomes) > 0 {
		// Recovery moved residuals (releases, rebinds); in-flight plans
		// that straddled it must commit as stale.
		e.mutations++
		// Journal what the pass decided, in outcome order: replay applies
		// these outcomes verbatim instead of re-running recovery, so a
		// replayed engine lands on the same repairs/sheds even if the
		// recovery policy or planner later changes.
		outs := make([]Outcome, len(rep.Outcomes))
		for i, o := range rep.Outcomes {
			outs[i] = Outcome{Kind: Repaired, ReqID: o.RequestID, Solution: o.Solution}
			if o.Mode == recov.ModeShed {
				outs[i] = Outcome{Kind: Shed, ReqID: o.RequestID}
			}
		}
		if jerr := e.journalOutcomes(outs...); jerr != nil && err == nil {
			err = jerr
		}
	}
	return err
}

// RecoverNow runs a recovery pass on demand — the hook for failures
// injected while recovery was disabled, or for resuming a pass that a
// canceled UpdateContext cut short. It returns the pass's report; ctx
// is checked between sessions. Without a recovery policy it returns
// nil, nil.
func (e *Engine) RecoverNow(ctx context.Context) (*recov.Report, error) {
	var rep *recov.Report
	var err error
	if xerr := e.exec(func() {
		err = e.recoverLocked(ctx)
		rep = e.lastRec
	}); xerr != nil {
		return nil, xerr
	}
	return rep, err
}

// LastRecovery returns the report of the most recent recovery pass
// (nil before the first pass or without a recovery policy). The report
// is immutable once returned.
func (e *Engine) LastRecovery() *recov.Report {
	var rep *recov.Report
	_ = e.exec(func() { rep = e.lastRec })
	return rep
}

// RecoveryEnabled reports whether the engine was built with a recovery
// policy.
func (e *Engine) RecoveryEnabled() bool { return e.rec != nil }

// describeEvents summarises drained resource events for the
// FailureInjected detail, e.g. "link 12 down, server 3 up".
func describeEvents(evs []sdn.ResourceEvent) string {
	if len(evs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, ev := range evs {
		if i > 0 {
			b.WriteString(", ")
		}
		state := "down"
		if ev.Up {
			state = "up"
		}
		fmt.Fprintf(&b, "%s %d %s", ev.Kind, ev.ID, state)
	}
	return b.String()
}
