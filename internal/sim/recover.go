package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// The failure campaign behind ExtRecover and BENCH_recover.json: on
// GÉANT, admit an Online_CP workload, then repeatedly fail the most
// utilised non-bridge link, let the engine's recovery subsystem repair
// or shed the affected sessions inside Update, and restore the link.
// Two policies run the identical schedule: the default repair-first
// policy (γ = 1.5) and the γ = 0 baseline that forces every session
// through the full planner — the ablation isolating what local repair
// buys.

const recoveryRounds = 5

// recoveryPolicies are the campaign's two arms.
var recoveryPolicies = []struct {
	Label string
	Pol   recov.Policy
}{
	{"repair γ=1.5", recov.DefaultPolicy()},
	{"replan only (γ=0)", recov.Policy{Gamma: 0, RetryBudget: 2}},
}

// recoveryRound is one failure round's outcome under one policy.
type recoveryRound struct {
	Affected         int     `json:"affected"`
	Local            int     `json:"repaired_local"`
	Replanned        int     `json:"repaired_replan"`
	Shed             int     `json:"shed"`
	LiveAfter        int     `json:"live_after"`
	PerSessionMicros float64 `json:"recovery_us_per_session"`
}

// recoveryArm aggregates one policy's campaign.
type recoveryArm struct {
	Label             string          `json:"name"`
	Gamma             float64         `json:"gamma"`
	AdmittedStart     int             `json:"sessions_at_start"`
	Rounds            []recoveryRound `json:"rounds"`
	Affected          int             `json:"affected_total"`
	Repaired          int             `json:"repaired_total"`
	Shed              int             `json:"shed_total"`
	RepairSuccessRate float64         `json:"repair_success_rate"`
	PerSessionMicros  float64         `json:"recovery_us_per_session"`
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

// runRecoveryArm drives the fixed failure schedule under one policy.
func runRecoveryArm(cfg Config, label string, pol recov.Policy) (*recoveryArm, error) {
	nw, err := networkFor("geant", 0, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPlanner("Online_CP", core.PlannerOptions{Nodes: nw.NumNodes()})
	if err != nil {
		return nil, err
	}
	o := engineOptions(cfg, p.Name())
	o.Recovery = &pol
	eng := engine.New(nw, p, o)
	defer eng.Close()

	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), cfg.Seed+13)
	if err != nil {
		return nil, err
	}
	if err := admitAll(eng, cfg.Requests, 0, fromGenerator(gen), nil); err != nil {
		return nil, err
	}

	arm := &recoveryArm{Label: label, Gamma: pol.Gamma, AdmittedStart: eng.LiveCount()}
	var totalDur time.Duration
	for r := 0; r < recoveryRounds; r++ {
		hot := hottestRepairableLink(nw)
		if hot == -1 {
			break
		}
		if err := eng.Update(func(n *sdn.Network) error { return n.SetLinkUp(hot, false) }); err != nil {
			return nil, err
		}
		rep := eng.LastRecovery()
		if rep == nil {
			return nil, fmt.Errorf("sim: recovery did not run in round %d", r)
		}
		round := recoveryRound{
			Affected:  len(rep.Outcomes),
			Local:     rep.Local,
			Replanned: rep.Replanned,
			Shed:      rep.Shed,
			LiveAfter: eng.LiveCount(),
		}
		if round.Affected > 0 {
			round.PerSessionMicros = float64(rep.Duration.Microseconds()) / float64(round.Affected)
		}
		arm.Rounds = append(arm.Rounds, round)
		arm.Affected += round.Affected
		arm.Repaired += rep.Repaired()
		arm.Shed += rep.Shed
		totalDur += rep.Duration
		if err := eng.Update(func(n *sdn.Network) error { return n.SetLinkUp(hot, true) }); err != nil {
			return nil, err
		}
	}
	if arm.Affected > 0 {
		arm.RepairSuccessRate = float64(arm.Repaired) / float64(arm.Affected)
		arm.PerSessionMicros = float64(totalDur.Microseconds()) / float64(arm.Affected)
	}
	return arm, nil
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
	arms := make([]*recoveryArm, len(recoveryPolicies))
	if err := forEachIndex(len(recoveryPolicies), func(i int) error {
		arm, aerr := runRecoveryArm(cfg, recoveryPolicies[i].Label, recoveryPolicies[i].Pol)
		arms[i] = arm
		return aerr
	}); err != nil {
		return nil, err
	}
	survived.X = numbered(1, len(arms[0].Rounds))
	latency.X = numbered(1, len(arms[0].Rounds))
	for _, arm := range arms {
		s := Series{Label: arm.Label}
		l := Series{Label: arm.Label}
		for _, round := range arm.Rounds {
			s.Y = append(s.Y, float64(round.LiveAfter))
			l.Y = append(l.Y, round.PerSessionMicros)
		}
		survived.Series = append(survived.Series, s)
		latency.Series = append(latency.Series, l)
	}
	return []Figure{survived, latency}, nil
}

// recoveryTiming is the paired micro-probe behind the headline bench
// number: for every session hit by the first failure, time a local
// re-route and a full re-plan on the identical released state.
type recoveryTiming struct {
	Sessions     int     `json:"sessions"`
	LocalNsOp    int64   `json:"local_repair_ns_per_session"`
	ReplanNsOp   int64   `json:"full_replan_ns_per_session"`
	SpeedupLocal float64 `json:"speedup_local_vs_replan"`
}

// runRecoveryTiming measures RepairReroute against the full planner
// path, paired per session over the campaign's failure schedule: each
// damaged session's allocation is released, both paths plan on the
// identical residual state, and the repair is rebound so later
// sessions see a consistent network.
func runRecoveryTiming(cfg Config) (*recoveryTiming, error) {
	nw, err := networkFor("geant", 0, cfg.Seed)
	if err != nil {
		return nil, err
	}
	planner, err := core.NewCPPlanner(core.DefaultCostModel(nw.NumNodes()))
	if err != nil {
		return nil, err
	}
	cp := core.NewAdmitter(nw, planner)
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), cfg.Seed+13)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Requests; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			return nil, gerr
		}
		_, _ = cp.Admit(context.Background(), req, nil)
	}

	arena := core.NewPlanArena()
	tm := &recoveryTiming{}
	var localNs, replanNs int64
	for r := 0; r < recoveryRounds; r++ {
		hot := hottestRepairableLink(nw)
		if hot == -1 {
			break
		}
		if err := nw.SetLinkUp(hot, false); err != nil {
			return nil, err
		}
		for _, id := range cp.AffectedLive() {
			sol, ok := cp.LiveSolution(id)
			if !ok || len(sol.Servers) != 1 {
				continue
			}
			if err := cp.ReleaseLive(id); err != nil {
				return nil, err
			}
			t0 := time.Now()
			rsol, rerr := core.RepairReroute(nw, sol.Request, sol.Servers[0], arena)
			t1 := time.Now()
			psol, perr := cp.PlanOn(context.Background(), nw, sol.Request, arena)
			t2 := time.Now()
			// A session contributes a paired sample when the local
			// re-route succeeded (so its timing reflects a full repair,
			// not an early infeasibility exit). The re-plan attempt is
			// timed whether or not it was admitted: a rejection still
			// pays the whole candidate-server sweep, which is the cost
			// being compared.
			if rerr == nil {
				tm.Sessions++
				localNs += t1.Sub(t0).Nanoseconds()
				replanNs += t2.Sub(t1).Nanoseconds()
			}
			// Rebind a replacement so later sessions see consistent
			// state; a replacement whose allocation no longer fits (a
			// sibling repair took the capacity) drops the session, as
			// an exhausted retry ladder would.
			switch {
			case rerr == nil && cp.Rebind(id, rsol) == nil:
			case perr == nil && cp.Rebind(id, psol) == nil:
			default:
				_ = cp.DropLive(id)
			}
		}
		if err := nw.SetLinkUp(hot, true); err != nil {
			return nil, err
		}
	}
	if tm.Sessions == 0 {
		return nil, fmt.Errorf("sim: failure campaign produced no paired repair/replan sample")
	}
	tm.LocalNsOp = localNs / int64(tm.Sessions)
	tm.ReplanNsOp = replanNs / int64(tm.Sessions)
	tm.SpeedupLocal = float64(replanNs) / float64(localNs)
	return tm, nil
}

// recoveryBench is the BENCH_recover.json document, following the
// repo's unified BENCH_*.json schema (same top-level keys as
// BENCH_plan.json): results is a flat list of named entries, each
// with ns_per_op plus free-form numeric metrics.
type recoveryBench struct {
	Benchmark   string `json:"benchmark"`
	Workload    string `json:"workload"`
	Command     string `json:"command"`
	Date        string `json:"date"`
	Environment struct {
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Note       string `json:"note"`
	} `json:"environment"`
	Results          []any  `json:"results"`
	CorrectnessGates string `json:"correctness_gates"`
	Mechanism        string `json:"mechanism"`
}

// recoveryTimingEntry is one arm of the paired repair/replan probe as
// a unified-schema results entry.
type recoveryTimingEntry struct {
	Name     string  `json:"name"`
	NsPerOp  int64   `json:"ns_per_op"`
	Sessions int     `json:"sessions"`
	Speedup  float64 `json:"speedup_local_vs_replan,omitempty"`
}

// recoveryArmEntry wraps one campaign arm with the schema's required
// ns_per_op (the arm's mean recovery time per affected session); the
// arm's own "name" field serves as the entry name.
type recoveryArmEntry struct {
	NsPerOp int64 `json:"ns_per_op"`
	recoveryArm
}

// WriteRecoveryBench runs the recovery campaign plus the paired
// repair-vs-replan timing probe and writes results/BENCH_recover.json
// (under dir), returning the written path.
func WriteRecoveryBench(dir string, cfg Config) (string, error) {
	if err := cfg.validate(); err != nil {
		return "", err
	}
	tm, err := runRecoveryTiming(cfg)
	if err != nil {
		return "", err
	}
	doc := &recoveryBench{
		Benchmark: "RecoveryCampaign + paired RepairReroute/PlanOn probe",
		Workload: fmt.Sprintf(
			"GÉANT, Online_CP, %d arrivals (seed %d); %d rounds of failing the most utilised non-bridge link, recovering inside engine.Update, restoring; arms: repair-first γ=1.5 vs forced re-plan γ=0; timing probe pairs one local re-route and one full re-plan per affected session on the identical released state",
			cfg.Requests, cfg.Seed, recoveryRounds),
		Command: "nfvsim -experiment ext-recover -json results/",
		Date:    time.Now().Format("2006-01-02"),
	}
	doc.Environment.GOOS = runtime.GOOS
	doc.Environment.GOARCH = runtime.GOARCH
	doc.Environment.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.Environment.Note = "wall-clock timings; repair_success_rate and mode counts are deterministic per seed, latencies vary per machine"
	doc.Results = append(doc.Results,
		recoveryTimingEntry{Name: "probe/local_repair", NsPerOp: tm.LocalNsOp, Sessions: tm.Sessions},
		recoveryTimingEntry{Name: "probe/full_replan", NsPerOp: tm.ReplanNsOp, Sessions: tm.Sessions,
			Speedup: tm.SpeedupLocal})
	for _, pc := range recoveryPolicies {
		arm, aerr := runRecoveryArm(cfg, pc.Label, pc.Pol)
		if aerr != nil {
			return "", aerr
		}
		doc.Results = append(doc.Results, recoveryArmEntry{
			NsPerOp:     int64(arm.PerSessionMicros * 1e3),
			recoveryArm: *arm,
		})
	}
	doc.CorrectnessGates = "TestRecoveryDeterminismOracle (fingerprints byte-identical across engine workers 1/4/8), TestRecoveryRepairCostBound (γ acceptance), TestZeroGammaForcesReplan (baseline arm), recover/engine suites under -race"
	doc.Mechanism = "local repair pins the VM placement and rebuilds one Steiner tree over {s_k, v} ∪ D_k (one KMB run, |D|+2 Dijkstras); a full re-plan sweeps every candidate server through the exponential-cost planner, which is why the pinned path wins"

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_recover.json")
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
