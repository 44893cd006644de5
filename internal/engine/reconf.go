package engine

// Reconfiguration integration: when the engine's planner implements
// core.Reconfigurer (Reconf_CP), every successful Update mutation is
// followed by one drift-triggered migration pass on the writer
// goroutine, inline with the update — so by the time Update returns,
// every accepted migration is live, observed and journaled, and no
// concurrent Admit ever plans against a half-migrated state. The pass
// itself ranks sessions deterministically and plans sequentially on the
// writer, which makes its outcomes independent of the worker count.

// reconfigureLocked runs one migration pass. Caller must be on the
// writer goroutine with e.reconf non-nil.
func (e *Engine) reconfigureLocked() error {
	outcomes := e.reconf.Reconfigure(e.adm, e.recArena)
	if len(outcomes) == 0 {
		return nil
	}
	// Migrations moved residuals (releases, rebinds); in-flight plans
	// that straddled them must commit as stale.
	e.mutations++
	// Journal each migration as a replacement — replay rebinds the new
	// tree verbatim instead of re-running the pass, exactly like
	// recovery's repaired outcomes.
	outs := make([]Outcome, len(outcomes))
	for i, o := range outcomes {
		e.obs.Reconfigured(o.ReqID, o.Solution.Servers, o.Solution.OperationalCost)
		outs[i] = Outcome{Kind: Repaired, ReqID: o.ReqID, Solution: o.Solution}
	}
	return e.journalOutcomes(outs...)
}
