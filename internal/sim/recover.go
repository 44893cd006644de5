package sim

import (
	"fmt"

	"nfvmcast/internal/engine"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// The failure campaign behind ExtRecover: on GÉANT, admit an Online_CP
// workload, then repeatedly fail the most utilised non-bridge link, let
// the engine's recovery subsystem repair or shed the affected sessions
// inside Apply, and restore the link. Two policies run the identical
// schedule: the default repair-first policy (γ = 1.5) and the γ = 0
// baseline that forces every session through the full planner — the
// ablation isolating what local repair buys.

const recoveryRounds = 5

// recoveryPolicies are the campaign's two arms.
var recoveryPolicies = []struct {
	Label string
	Pol   recov.Policy
}{
	{"repair γ=1.5", recov.DefaultPolicy()},
	{"replan only (γ=0)", recov.Policy{Gamma: 0, RetryBudget: 2}},
}

// recoveryRound is one failure round's outcome under one policy: the
// sessions live after recovery and the mean recovery time per affected
// session (0 when no session was affected).
type recoveryRound struct {
	LiveAfter        int
	PerSessionMicros float64
}

// hottestRepairableLink returns the most utilised up-link that is not
// a bridge of the topology, or -1 when no such link carries load.
func hottestRepairableLink(nw *sdn.Network) graph.EdgeID {
	isBridge := make(map[graph.EdgeID]bool)
	for _, e := range graph.Bridges(nw.Graph()) {
		isBridge[e] = true
	}
	var hot graph.EdgeID = -1
	var hotUtil float64
	for e := 0; e < nw.NumEdges(); e++ {
		if u := nw.LinkUtilization(e); nw.LinkUp(e) && u > hotUtil && !isBridge[e] {
			hot, hotUtil = e, u
		}
	}
	return hot
}

// runRecoveryArm drives the fixed failure schedule under one policy
// and returns each round's outcome.
func runRecoveryArm(cfg Config, pol recov.Policy) ([]recoveryRound, error) {
	eng, nw, err := newEngine(cfg, "Online_CP", "geant", 0, cfg.Seed, &pol)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), cfg.Seed+13)
	if err != nil {
		return nil, err
	}
	if err := admitAll(eng, cfg.Requests, 0, fromGenerator(gen), nil); err != nil {
		return nil, err
	}

	var rounds []recoveryRound
	for r := 0; r < recoveryRounds; r++ {
		hot := hottestRepairableLink(nw)
		if hot == -1 {
			break
		}
		if err := eng.Apply(engine.Mutation{Kind: engine.LinkState, ID: hot, Up: false}); err != nil {
			return nil, err
		}
		rep := eng.LastRecovery()
		if rep == nil {
			return nil, fmt.Errorf("sim: recovery did not run in round %d", r)
		}
		round := recoveryRound{LiveAfter: eng.LiveCount()}
		if n := len(rep.Outcomes); n > 0 {
			round.PerSessionMicros = float64(rep.Duration.Microseconds()) / float64(n)
		}
		rounds = append(rounds, round)
		if err := eng.Apply(engine.Mutation{Kind: engine.LinkState, ID: hot, Up: true}); err != nil {
			return nil, err
		}
	}
	return rounds, nil
}

// ExtRecover is an extension experiment beyond the paper: the failure
// campaign above, reported as figures — surviving sessions after each
// failure round and mean recovery latency per affected session, for
// the repair-first policy against the forced-replan baseline.
func ExtRecover(cfg Config) ([]Figure, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	survived := Figure{
		ID:     "ExtRecover",
		Title:  "sessions surviving link-failure rounds on GÉANT (Online_CP)",
		XLabel: "failure round",
		YLabel: "live sessions",
	}
	latency := Figure{
		ID:     "ExtRecoverLatency",
		Title:  "recovery latency per affected session on GÉANT",
		XLabel: "failure round",
		YLabel: "µs per session",
	}
	arms := make([][]recoveryRound, len(recoveryPolicies))
	if err := forEachIndex(len(recoveryPolicies), func(i int) error {
		rounds, aerr := runRecoveryArm(cfg, recoveryPolicies[i].Pol)
		arms[i] = rounds
		return aerr
	}); err != nil {
		return nil, err
	}
	survived.X = numbered(1, len(arms[0]))
	latency.X = numbered(1, len(arms[0]))
	for i, rounds := range arms {
		s := Series{Label: recoveryPolicies[i].Label}
		l := Series{Label: recoveryPolicies[i].Label}
		for _, round := range rounds {
			s.Y = append(s.Y, float64(round.LiveAfter))
			l.Y = append(l.Y, round.PerSessionMicros)
		}
		survived.Series = append(survived.Series, s)
		latency.Series = append(latency.Series, l)
	}
	return []Figure{survived, latency}, nil
}
