// Failover: link failure and self-healing session recovery.
//
// An operator runs live multicast sessions admitted by Online_CP. A
// backbone link fails. The engine's recovery subsystem — enabled with
// EngineOptions.Recovery — identifies the affected sessions inside the same
// Apply that injected the failure, re-routes each around the failure
// (local repair, with the VM placement pinned, accepted while the new
// tree costs at most γ× the old one), falls back to a full re-plan
// where re-routing is too expensive or infeasible, and sheds what the
// degraded network cannot host. The controller then reconciles flow
// rules from the recovery report and verifies every repaired session
// by packet replay.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"nfvmcast"
	"nfvmcast/internal/engine"
)

const (
	networkSize = 80
	sessions    = 120
	seed        = 19
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	topo, err := nfvmcast.WaxmanDegree(networkSize, nfvmcast.DefaultAvgDegree, 0.14, seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	nw, err := nfvmcast.NewNetwork(topo, nfvmcast.DefaultNetworkConfig(), rng)
	if err != nil {
		return err
	}
	// Admission runs through the engine; failure injection goes through
	// its typed Apply so it never races a commit, and the recovery
	// policy makes Apply repair affected sessions before returning.
	planner, err := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(networkSize))
	if err != nil {
		return err
	}
	policy := nfvmcast.DefaultRecoveryPolicy()
	metrics := nfvmcast.NewMetricsRegistry()
	ring := nfvmcast.NewRingSink(8)
	cp := nfvmcast.NewEngine(nw, planner, nfvmcast.EngineOptions{
		Obs: nfvmcast.NewAdmissionObs(metrics, planner.Name(),
			nfvmcast.AdmissionObsOptions{Events: ring}),
		Recovery: &policy,
	})
	defer cp.Close()
	ctrl := nfvmcast.NewController(nw)

	// Phase 1: admit sessions and install their flow rules.
	gen, err := nfvmcast.NewGenerator(networkSize, nfvmcast.OnlineGeneratorConfig(), seed+2)
	if err != nil {
		return err
	}
	live := make(map[int]*nfvmcast.Solution)
	for i := 0; i < sessions; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			return gerr
		}
		sol, aerr := cp.Admit(req)
		if aerr != nil {
			if nfvmcast.IsRejection(aerr) {
				continue
			}
			return aerr
		}
		if err := ctrl.Install(req, sol.Tree); err != nil {
			return err
		}
		live[req.ID] = sol
	}
	fmt.Printf("steady state: %d live sessions, %d flow rules\n", len(live), ctrl.TotalRules())

	// Phase 2: fail the busiest link that is not a cut edge (losing a
	// bridge partitions the network and nothing can be re-routed).
	// Recovery runs inside this Apply: when it returns, every
	// affected session has been repaired or shed.
	isBridge := make(map[nfvmcast.EdgeID]bool)
	for _, e := range nfvmcast.Bridges(nw.Graph()) {
		isBridge[e] = true
	}
	var hot nfvmcast.EdgeID = -1
	var hotUtil float64
	for e := 0; e < nw.NumEdges(); e++ {
		if u := nw.LinkUtilization(e); u > hotUtil && !isBridge[e] {
			hot, hotUtil = e, u
		}
	}
	if hot == -1 {
		return fmt.Errorf("every link is a bridge; nothing sensible to fail")
	}
	he := nw.Graph().Edge(hot)
	if err := cp.Apply(engine.Mutation{Kind: engine.LinkState, ID: hot, Up: false}); err != nil {
		return err
	}
	fmt.Printf("\n*** link %d (%d—%d, %.0f%% utilised) FAILED ***\n\n", hot, he.U, he.V, 100*hotUtil)

	// Phase 3: reconcile flow rules from the recovery report. Repaired
	// sessions keep their identity but carry a new tree; shed sessions
	// are gone with ErrDegraded.
	rep := cp.LastRecovery()
	if rep == nil {
		return fmt.Errorf("recovery did not run")
	}
	for _, out := range rep.Outcomes {
		if err := ctrl.Uninstall(out.RequestID); err != nil {
			return err
		}
		if out.Mode == nfvmcast.RecoveryModeShed {
			if !errors.Is(out.Err, nfvmcast.ErrDegraded) {
				return fmt.Errorf("shed session %d missing ErrDegraded: %v", out.RequestID, out.Err)
			}
			delete(live, out.RequestID)
			fmt.Printf("  session %d shed (no residual capacity)\n", out.RequestID)
			continue
		}
		// The γ bound is the local-repair acceptance rule: a re-routed
		// tree may cost at most Gamma times the damaged one.
		if out.Mode == nfvmcast.RecoveryModeLocal && out.NewCost > policy.Gamma*out.OldCost {
			return fmt.Errorf("local repair of %d broke the cost bound: %.1f > %.1f×%.1f",
				out.RequestID, out.NewCost, policy.Gamma, out.OldCost)
		}
		sol := out.Solution
		if err := ctrl.Install(sol.Request, sol.Tree); err != nil {
			return err
		}
		if err := ctrl.VerifyDelivery(out.RequestID); err != nil {
			return fmt.Errorf("repaired session %d broken: %w", out.RequestID, err)
		}
		live[out.RequestID] = sol
		fmt.Printf("  session %d repaired (%s, cost %.1f -> %.1f)\n",
			out.RequestID, out.Mode, out.OldCost, out.NewCost)
	}
	fmt.Printf("recovery: %d re-routed locally, %d re-planned, %d shed (repairs verified by packet replay)\n",
		rep.Local, rep.Replanned, rep.Shed)
	fmt.Printf("post-failure: %d live sessions, %d flow rules\n", len(live), ctrl.TotalRules())

	// Phase 4: repair the link. The restore bumps the structure version
	// too; with no session touching a failed resource the recovery pass
	// is an empty no-op.
	if err := cp.Apply(engine.Mutation{Kind: engine.LinkState, ID: hot, Up: true}); err != nil {
		return err
	}
	fmt.Printf("\nlink repaired; %d links down\n", len(nw.DownLinks()))

	// Closing audit from the observability layer: lifecycle totals and
	// the tail of the admission-event stream (the repair_attempted /
	// repaired / shed events of phase 2 appear alongside the two
	// failure_injected markers).
	counters := metrics.CounterValues()
	fmt.Printf("\nmetrics: admitted=%d repairs=%d shed=%d failures_injected=%d\n",
		counters[`nfv_admitted_total{policy="Online_CP"}`],
		counters[`nfv_repairs_attempted_total{policy="Online_CP"}`],
		counters[`nfv_shed_total{policy="Online_CP"}`],
		counters[`nfv_failures_injected_total{policy="Online_CP"}`])
	fmt.Printf("last %d of %d admission events:\n", len(ring.Events()), ring.Total())
	for _, ev := range ring.Events() {
		fmt.Printf("  #%d %s", ev.Seq, ev.Type)
		if ev.Request != 0 {
			fmt.Printf(" request=%d", ev.Request)
		}
		if ev.Reason != "" {
			fmt.Printf(" (%s)", ev.Reason)
		}
		fmt.Println()
	}
	return nil
}
