package engine

import (
	"fmt"
	"strings"

	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// Recovery integration: when the engine is built with a recovery
// policy (Options.Recovery), every structural change applied through
// Apply triggers a recovery pass under the writer lock, inline with the
// batch — so by the time Apply returns, every affected live session is
// repaired or shed and no concurrent Admit ever plans against a
// half-recovered state. Recovery runs sessions in ascending request-ID
// order and plans sequentially under the lock, which makes its outcomes
// independent of the engine's worker count (pinned by the recovery
// determinism oracle).

// recoverLocked runs one recovery pass and journals its outcomes; the
// error is the journal's. Caller must hold the writer lock.
func (e *Engine) recoverLocked() error {
	if e.rec == nil {
		return nil
	}
	rep := e.rec.Recover(e.recArena)
	e.lastRec = rep
	if len(rep.Outcomes) == 0 {
		return nil
	}
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
	return e.journalOutcomes(outs...)
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
