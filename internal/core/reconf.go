package core

import (
	"context"
	"sort"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// Online tree reconfiguration. Online_CP prices a tree once, at
// admission; as later arrivals load the network, an admitted session's
// links and servers drift up the exponential cost curve while cheaper
// placements may have opened elsewhere (departures, recoveries).
// ReconfPlanner is Online_CP plus a bounded migration pass: each engine
// maintenance operation (Apply, Reoptimize) re-prices every live session under the current exponential
// weights, ranks sessions by drift (current price minus admission-time
// selection cost), and migrates the worst-drifted trees — but only when
// the projected saving clears a hysteresis factor β, so near-ties never
// thrash. Migrations reuse the repair machinery (release → re-plan →
// rebind) and journal as replacements, so durability and crash recovery
// need no new record type.

// Reconfiguration defaults: β close enough to 1 that genuine drift
// migrates, far enough that re-plan noise does not; a small per-pass
// budget keeps maintenance latency bounded.
const (
	DefaultReconfHysteresis = 1.2
	DefaultReconfMigrations = 4
)

// ReconfOutcome records one migrated session of a reconfiguration pass.
type ReconfOutcome struct {
	// ReqID is the migrated session.
	ReqID int
	// Solution is the new realisation now live on the network.
	Solution *Solution
	// OldPrice is the released tree's exponential price at pass time;
	// NewCost is the replacement's selection cost. OldPrice >= β·NewCost
	// by the hysteresis rule.
	OldPrice, NewCost float64
}

// Reconfigurer is implemented by planners that support a post-admission
// migration pass. The engine invokes Reconfigure under its writer
// lock after every successful maintenance operation (Apply,
// Reoptimize), with exclusive
// ownership of the admitter; implementations must keep the pass
// deterministic (stable session order, no map-order dependence) so
// worker counts cannot change outcomes.
type Reconfigurer interface {
	Planner
	Reconfigure(a *Admitter, arena *PlanArena) []ReconfOutcome
}

// ReconfPlanner wraps CPPlanner with the drift-triggered migration
// pass. Planning (and fast rejection) is exactly Online_CP's — only the
// reconfiguration behaviour and the policy name differ.
type ReconfPlanner struct {
	*CPPlanner
	beta  float64
	limit int
}

// NewReconfPlanner returns a reconfiguring Online_CP planner. beta is
// the migration hysteresis (a session migrates only when its current
// exponential price is at least beta times the re-planned tree's
// selection cost; values <= 1 migrate on any strict improvement), and
// limit bounds migrations per pass.
func NewReconfPlanner(model CostModel, beta float64, limit int) (*ReconfPlanner, error) {
	inner, err := NewCPPlanner(model)
	if err != nil {
		return nil, err
	}
	if beta <= 0 {
		beta = DefaultReconfHysteresis
	}
	if limit < 1 {
		limit = DefaultReconfMigrations
	}
	return &ReconfPlanner{CPPlanner: inner, beta: beta, limit: limit}, nil
}

// Name identifies the algorithm.
func (p *ReconfPlanner) Name() string { return "Reconf_CP" }

// priceTree prices an existing realisation under the current
// exponential weights: every distinct directed link traversal at the
// link's absolute cost, every serving node at the server's. Summed in
// sorted edge order — float addition is order-dependent and the drift
// ranking must be deterministic.
func (p *ReconfPlanner) priceTree(nw *sdn.Network, tree *multicast.PseudoTree) float64 {
	var price float64
	for _, l := range tree.LinkLoads() {
		price += float64(l.Uses) * p.model.LinkWeight(nw, l.Edge) * nw.BandwidthCap(l.Edge)
	}
	for _, v := range tree.Servers {
		price += p.model.ServerCost(nw, v)
	}
	return price
}

// Reconfigure runs one migration pass over the admitter's live
// sessions (under the engine writer lock only). Sessions are ranked by
// drift — current exponential price minus admission-time selection
// cost — worst first (ties broken by ascending request ID), and at most
// the planner's migration budget are attempted. Each attempt releases
// the session, re-plans it with the wrapped Online_CP on the freed
// residual view, and keeps the replacement only when the hysteresis
// rule oldPrice >= β·newCost holds; otherwise — or when the re-plan
// fails — the original allocation and the residuals are restored
// exactly.
func (p *ReconfPlanner) Reconfigure(a *Admitter, arena *PlanArena) []ReconfOutcome {
	if arena == nil {
		arena = NewPlanArena()
	}
	nw := a.Network()
	type cand struct {
		id    int
		drift float64
	}
	var cands []cand
	for _, sol := range a.Lives() { // ascending request ID
		drift := p.priceTree(nw, sol.Tree) - sol.SelectionCost
		if drift > 0 {
			cands = append(cands, cand{id: sol.Request.ID, drift: drift})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].drift != cands[j].drift {
			return cands[i].drift > cands[j].drift
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > p.limit {
		cands = cands[:p.limit]
	}

	var outcomes []ReconfOutcome
	for _, c := range cands {
		sol, ok := a.LiveSolution(c.id)
		if !ok {
			continue
		}
		// A session that stays put gets the residuals back bit for bit:
		// re-allocating the bundle just released is float addition, which
		// need not round-trip, and a journal replays only migrations — it
		// could not reproduce that drift.
		before := nw.Snapshot()
		if err := a.ReleaseLive(c.id); err != nil {
			continue
		}
		// Price the released tree on the same residual view the re-plan
		// sees, so the hysteresis comparison is apples-to-apples.
		oldPrice := p.priceTree(nw, sol.Tree)
		fresh, err := p.CPPlanner.Plan(context.Background(), nw, sol.Request, arena)
		if err != nil || oldPrice < p.beta*fresh.SelectionCost || a.Rebind(c.id, fresh) != nil {
			// Not worth migrating, no longer plannable, or the new tree
			// does not fit: the session keeps its original allocation.
			_ = nw.Restore(before)
			continue
		}
		outcomes = append(outcomes, ReconfOutcome{
			ReqID:    c.id,
			Solution: fresh,
			OldPrice: oldPrice,
			NewCost:  fresh.SelectionCost,
		})
	}
	return outcomes
}
