package sim

import (
	"fmt"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// ExtReoptimize is an extension experiment beyond the paper: after a
// monitoring period of online admissions, a Reoptimize maintenance
// pass re-places the admitted sessions with Appro_Multi_Cap on the
// residual network. The figure reports, per admission policy, the
// total operational cost before and after the pass — quantifying how
// much admission-order myopia costs and how much of it batch
// re-placement recovers.
func ExtReoptimize(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.NetworkSizes[len(cfg.NetworkSizes)/2]
	policies := []string{"Online_CP", "SP", "SP_Static"}
	fig := Figure{
		ID: "ExtReoptimize",
		Title: fmt.Sprintf(
			"total session cost before/after re-optimisation (n = %d, %d arrivals)",
			n, cfg.Requests),
		XLabel: "policy(0=CP,1=SP,2=SPstatic)",
		YLabel: "total operational cost / % saved",
	}
	before := Series{Label: "before"}
	after := Series{Label: "after"}
	savedPct := Series{Label: "% saved"}
	for pi, policy := range policies {
		eng, err := newChurnEngine(cfg, policy, "waxman", n, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		gen, err := multicast.NewGenerator(n, multicast.OnlineGeneratorConfig(), cfg.Seed+61)
		if err != nil {
			return nil, err
		}
		var sessions []*core.Solution
		for i := 0; i < cfg.Requests; i++ {
			req, gerr := gen.Next()
			if gerr != nil {
				return nil, gerr
			}
			if sol, aerr := eng.Admit(req); aerr == nil {
				sessions = append(sessions, sol)
			} else if !core.IsRejection(aerr) {
				return nil, aerr
			}
		}
		if len(sessions) == 0 {
			return nil, fmt.Errorf("sim: reoptimize fixture admitted nothing for %s", policy)
		}
		// The maintenance pass mutates the network wholesale, so it runs
		// under the engine's writer lock; the new placements are then
		// recorded so later departures release the right allocations.
		var (
			reopt []*core.Solution
			saved float64
		)
		err = eng.Update(func(nw *sdn.Network) error {
			var uerr error
			reopt, _, saved, uerr = core.Reoptimize(nw, sessions, core.Options{K: cfg.K})
			return uerr
		})
		if err != nil {
			return nil, err
		}
		for _, sol := range reopt {
			if rerr := eng.Replace(sol.Request.ID, sol); rerr != nil {
				return nil, rerr
			}
		}
		var pre, post float64
		for i := range sessions {
			pre += sessions[i].OperationalCost
			post += reopt[i].OperationalCost
		}
		fig.X = append(fig.X, float64(pi))
		before.Y = append(before.Y, pre)
		after.Y = append(after.Y, post)
		savedPct.Y = append(savedPct.Y, 100*saved/pre)
	}
	fig.Series = []Series{before, after, savedPct}
	return []Figure{fig}, nil
}
