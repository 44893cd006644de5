package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"nfvmcast/internal/core"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/shard"
	"nfvmcast/internal/testutil"
	"nfvmcast/internal/topology"
)

// TenantStats aggregates one workload class's outcomes.
type TenantStats struct {
	Arrivals int `json:"arrivals"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
}

// Result is what one scenario run produced. Fingerprint is a SHA-256
// over the decision transcript (every admit/reject/depart/failure/
// recovery outcome with exact costs) and contains no timing, so it is
// byte-identical across engine worker counts, machines and runs;
// RecoverySeconds and ElapsedSeconds carry the wall-clock side.
type Result struct {
	Name           string                  `json:"name"`
	Policy         string                  `json:"policy"`
	Workers        int                     `json:"workers"`
	Shards         int                     `json:"shards,omitempty"`
	Arrivals       int                     `json:"arrivals"`
	Admitted       int                     `json:"admitted"`
	Rejected       int                     `json:"rejected"`
	RuleRejected   int                     `json:"ruleRejected"`
	Departed       int                     `json:"departed"`
	Shed           int                     `json:"shed"`
	RepairedLocal  int                     `json:"repairedLocal"`
	RepairedReplan int                     `json:"repairedReplan"`
	FailureBatches int                     `json:"failureBatches"`
	RecoveryPasses int                     `json:"recoveryPasses"`
	PeakLive       int                     `json:"peakLive"`
	FinalLive      int                     `json:"finalLive"`
	PerTenant      map[string]*TenantStats `json:"perTenant"`
	// Violations holds every invariant breach observed during the run;
	// a clean run has none. Violations are reported, not fatal, so one
	// run surfaces every breach at once.
	Violations      []string  `json:"violations,omitempty"`
	Fingerprint     string    `json:"fingerprint"`
	RecoverySeconds []float64 `json:"recoverySeconds,omitempty"`
	ElapsedSeconds  float64   `json:"elapsedSeconds"`
	// ShardReports carries the fleet's per-shard fan-in (sharded and
	// daemon runs only): per-shard decision counts and transcript
	// fingerprints in ascending shard-ID order.
	ShardReports []shard.ShardReport `json:"shardReports,omitempty"`

	transcript string
}

// Transcript returns the full decision transcript the fingerprint
// hashes — the artifact to diff when two runs disagree.
func (r *Result) Transcript() string { return r.transcript }

// Every target call the executor makes is bounded by the shared
// testutil.Watchdog() budget (2 minutes scaled by NFVMCAST_TEST_SLOW).
// The single-writer engine must never wedge: a call that does not
// return within this budget is a liveness violation, not slowness.

// defaultCheckEvery is the cadence of the O(live·tree) conservation
// check; cheap residual-bounds checks run every event.
const defaultCheckEvery = 32

// networkFor builds the scenario's substrate network. The seed feeds
// both topology synthesis (waxman/fattree) and capacity/server
// placement, so one (config, seed) pair names one concrete network.
func networkFor(cfg *Config) (*sdn.Network, error) {
	topo, err := topology.ByName(cfg.Topology.Name, cfg.Topology.Size, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", cfg.Name, err)
	}
	return sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(cfg.Seed)))
}

// substrate builds one admission cell's network and its planner,
// resolved from the policy registry (core.Planners lists what
// resolves). Every call builds an identical replica.
func substrate(cfg *Config) (*sdn.Network, core.Planner, error) {
	nw, err := networkFor(cfg)
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewPlanner(cfg.Policy, core.PlannerOptions{Nodes: nw.NumNodes()})
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %q: unknown policy %q", cfg.Name, cfg.Policy)
	}
	return nw, p, nil
}

// recoveryPolicy maps the config's recovery mode onto an engine
// policy. An empty mode means self-healing on exactly when the
// scenario injects failures.
func recoveryPolicy(cfg *Config) *recov.Policy {
	switch {
	case cfg.Recovery == "replan":
		return &recov.Policy{Gamma: 0, RetryBudget: 2}
	case cfg.Recovery == "off", cfg.Recovery == "" && len(cfg.Failures) == 0:
		return nil
	}
	pol := recov.DefaultPolicy()
	return &pol
}

// fmtG renders a float exactly (shortest round-trip form), the only
// float format allowed into the transcript.
func fmtG(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// shardField renders a transcript line's shard field: empty for an
// unsharded subject.
func shardField(id string) string {
	if id == "" {
		return ""
	}
	return " shard=" + id
}

// timeline validates cfg and expands it against the scenario
// substrate. Expansion reads only the network's structure, so a fresh
// copy serves every target.
func timeline(cfg *Config) ([]event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nw, err := networkFor(cfg)
	if err != nil {
		return nil, err
	}
	return buildTimeline(cfg, nw)
}

// Run validates cfg, expands its timeline and drives it in-process —
// through one engine, or through a shard router when cfg.Shards > 1 —
// checking invariants as it goes. The error return is for broken
// configs and harness-level failures (a wedged writer, an inconsistent
// recovery report); engine-level invariant breaches land in
// Result.Violations so a run reports them all.
func Run(cfg *Config) (*Result, error) {
	events, err := timeline(cfg)
	if err != nil {
		return nil, err
	}
	newTarget := newEngineTarget
	if cfg.Shards > 1 {
		newTarget = newRouterTarget
	}
	t, closeTarget, err := newTarget(cfg)
	if err != nil {
		return nil, err
	}
	defer closeTarget()
	return execute(cfg, events, t)
}

// executor drives one expanded timeline through one target. It keeps
// its own books — the live view, the Result counters, the transcript —
// and reconciles them with the target's cells as it goes.
type executor struct {
	cfg   *Config
	t     target
	cells []*cell
	// sharded selects the sharded transcript lines: the cells carry
	// shard ids.
	sharded bool
	ctrl    *sdn.Controller
	res     *Result

	live       map[int]string  // request ID -> admitting shard ("" unsharded)
	lastRec    []*recov.Report // per cell: the last absorbed recovery pass
	tb         strings.Builder
	checkEvery int
	events     int
	watchdog   time.Duration
}

// execute runs events through t and seals the result.
func execute(cfg *Config, events []event, t target) (*Result, error) {
	x := &executor{
		cfg:   cfg,
		t:     t,
		cells: t.cells(),
		res: &Result{
			Name:      cfg.Name,
			Policy:    cfg.Policy,
			Workers:   cfg.Workers,
			Shards:    cfg.Shards,
			PerTenant: make(map[string]*TenantStats),
		},
		live:       make(map[int]string),
		checkEvery: cfg.CheckEveryEvents,
		watchdog:   testutil.Watchdog(),
	}
	x.sharded = len(x.cells) > 0 && x.cells[0].id != ""
	x.lastRec = make([]*recov.Report, len(x.cells))
	if x.checkEvery == 0 {
		x.checkEvery = defaultCheckEvery
	}
	for _, tn := range cfg.Tenants {
		x.res.PerTenant[tn.Name] = &TenantStats{}
	}
	if cfg.MaxRulesPerSwitch > 0 {
		// Flow tables belong to one network: a rule budget needs exactly
		// one in-process cell.
		if len(x.cells) != 1 {
			return nil, fmt.Errorf("scenario %q: rule budgets need a single in-process engine", cfg.Name)
		}
		ctrl, err := sdn.NewControllerWithRuleLimit(x.cells[0].nw, cfg.MaxRulesPerSwitch)
		if err != nil {
			return nil, err
		}
		x.ctrl = ctrl
	}
	if len(x.cells) == 0 {
		// Refuse up front rather than half-apply: clamping a shrink
		// against live allocations needs residuals only cells expose.
		for i := range events {
			if events[i].kind == evFailure && events[i].fail.scale != 0 {
				return nil, fmt.Errorf("scenario %q: resize step %q needs in-process cells (shrink clamping reads residuals)",
					cfg.Name, events[i].fail.label)
			}
		}
	}

	start := time.Now()
	if err := x.drive(events); err != nil {
		return nil, err
	}
	x.res.ElapsedSeconds = time.Since(start).Seconds()
	x.res.FinalLive = len(x.live)
	var rep *shard.Report
	if err := x.guard("Report", cfg.HorizonHours, func() (err error) {
		rep, err = t.report()
		return err
	}); err != nil {
		return nil, fmt.Errorf("scenario %q: report: %w", cfg.Name, err)
	}
	if rep != nil {
		x.res.ShardReports = rep.Shards
		// The transcript already interleaves every shard's decisions in
		// arrival order; folding the fleet's merged per-shard digest in
		// ties the fingerprint to both views of the run.
		x.linef("router merged=%s", rep.Merged)
	}
	x.res.transcript = x.tb.String()
	sum := sha256.Sum256([]byte(x.res.transcript))
	x.res.Fingerprint = hex.EncodeToString(sum[:])
	return x.res, nil
}

// linef appends one transcript line.
func (x *executor) linef(format string, args ...any) {
	fmt.Fprintf(&x.tb, format+"\n", args...)
}

// guard runs one target call under the liveness watchdog. The engine
// serialises every call under one writer lock; any call that fails to
// return is a wedged writer — the one failure mode a black-box harness
// cannot observe from return values alone.
func (x *executor) guard(op string, at float64, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(x.watchdog):
		return fmt.Errorf("liveness violation: %s wedged at t=%s (no response in %v)", op, fmtG(at), x.watchdog)
	}
}

// drive processes the timeline in order, departs every session still
// live at the horizon, and closes with a full invariant sweep.
func (x *executor) drive(events []event) error {
	for i := range events {
		ev := &events[i]
		var err error
		switch ev.kind {
		case evArrival:
			err = x.arrive(ev)
		case evDeparture:
			err = x.depart(ev.at, ev.reqID)
		case evFailure:
			err = x.failure(ev)
		}
		if err != nil {
			return err
		}
		x.events++
		x.checkBounds(ev.at)
		if x.events%x.checkEvery == 0 {
			if err := x.checkConservation(ev.at); err != nil {
				return err
			}
		}
	}
	// Horizon: everything still holding resources departs, in ID order
	// (depart explicitly sorted to stay deterministic).
	for _, id := range x.liveIDs() {
		if err := x.depart(x.cfg.HorizonHours, id); err != nil {
			return err
		}
	}
	x.checkBounds(x.cfg.HorizonHours)
	if err := x.checkConservation(x.cfg.HorizonHours); err != nil {
		return err
	}
	x.checkDrained()
	r := x.res
	if x.sharded {
		x.linef("end admitted=%d rejected=%d departed=%d shed=%d repaired=%d+%d live=%d shards=%d",
			r.Admitted, r.Rejected, r.Departed, r.Shed, r.RepairedLocal, r.RepairedReplan, len(x.live), len(x.cells))
	} else {
		x.linef("end admitted=%d rejected=%d rule-rejected=%d departed=%d shed=%d repaired=%d+%d live=%d",
			r.Admitted, r.Rejected, r.RuleRejected, r.Departed, r.Shed, r.RepairedLocal, r.RepairedReplan, len(x.live))
	}
	return nil
}

// release departs one session through the target under the watchdog.
func (x *executor) release(at float64, reqID int) error {
	return x.guard("Release", at, func() error { return x.t.release(reqID) })
}

// arrive offers one request to the target and, under a rule-limited
// controller, compiles the admitted tree into flow rules (departing
// the session again if a switch table overflows).
func (x *executor) arrive(ev *event) error {
	req := ev.req
	tenant := x.cfg.Tenants[ev.tenant].Name
	ts := x.res.PerTenant[tenant]
	ts.Arrivals++
	x.res.Arrivals++
	var adm admission
	if err := x.guard("Admit", ev.at, func() (err error) {
		adm, err = x.t.admit(tenant, req)
		return err
	}); err != nil {
		return fmt.Errorf("scenario %q: admit req %d: %w", x.cfg.Name, req.ID, err)
	}
	if adm.sol == nil {
		ts.Rejected++
		x.res.Rejected++
		x.linef("t=%s reject req=%d tenant=%s reason=%s", fmtG(ev.at), req.ID, tenant, adm.reason)
		return nil
	}
	if x.ctrl != nil {
		if ierr := x.ctrl.Install(req, adm.sol.Tree); ierr != nil {
			if !errors.Is(ierr, sdn.ErrTableFull) {
				return fmt.Errorf("scenario %q: install req %d: %w", x.cfg.Name, req.ID, ierr)
			}
			if err := x.release(ev.at, req.ID); err != nil {
				return fmt.Errorf("scenario %q: depart rule-rejected req %d: %w", x.cfg.Name, req.ID, err)
			}
			ts.Rejected++
			x.res.RuleRejected++
			x.linef("t=%s rule-reject req=%d tenant=%s", fmtG(ev.at), req.ID, tenant)
			return nil
		}
	}
	x.live[req.ID] = adm.shard
	ts.Admitted++
	x.res.Admitted++
	if len(x.live) > x.res.PeakLive {
		x.res.PeakLive = len(x.live)
	}
	x.linef("t=%s admit req=%d tenant=%s%s cost=%s servers=%v",
		fmtG(ev.at), req.ID, tenant, shardField(adm.shard), fmtG(adm.sol.OperationalCost), adm.sol.Servers)
	return nil
}

// depart releases one session if it is still live; sessions shed by
// recovery or bounced by the rule budget have already released.
func (x *executor) depart(at float64, reqID int) error {
	if _, ok := x.live[reqID]; !ok {
		return nil
	}
	err := x.release(at, reqID)
	if errors.Is(err, errShed) {
		// A target without cells sheds behind the executor's back; the
		// session is gone either way and counts as shed.
		delete(x.live, reqID)
		x.res.Shed++
		x.linef("t=%s depart req=%d (already shed)", fmtG(at), reqID)
		return nil
	}
	if err != nil {
		return fmt.Errorf("scenario %q: depart req %d: %w", x.cfg.Name, reqID, err)
	}
	if x.ctrl != nil && x.ctrl.Installed(reqID) {
		if err := x.ctrl.Uninstall(reqID); err != nil {
			return fmt.Errorf("scenario %q: uninstall req %d: %w", x.cfg.Name, reqID, err)
		}
	}
	delete(x.live, reqID)
	x.res.Departed++
	x.linef("t=%s depart req=%d", fmtG(at), reqID)
	return nil
}

// failure applies one failure-script action through the target and
// reconciles the executor's live view (and the flow tables) with
// whatever the automatic recovery passes decided.
func (x *executor) failure(ev *event) error {
	fa := ev.fail
	var applied []int
	if err := x.guard("Apply", ev.at, func() (err error) {
		applied, err = x.t.apply(fa)
		return err
	}); err != nil {
		return fmt.Errorf("scenario %q: failure script step %q: %w", x.cfg.Name, fa.label, err)
	}
	switch {
	case len(applied) == 0:
		x.linef("t=%s fail %s (no-op)", fmtG(ev.at), fa.label)
		return nil
	case !x.sharded:
		x.linef("t=%s fail %s (%d mutations)", fmtG(ev.at), fa.label, applied[0])
	case fa.scale != 0:
		x.linef("t=%s fail %s (%d shards)", fmtG(ev.at), fa.label, len(applied))
	default:
		x.linef("t=%s fail %s (%d mutations x %d shards)", fmtG(ev.at), fa.label, len(fa.muts), len(applied))
	}
	x.res.FailureBatches++
	return x.absorbRecovery(ev.at)
}

// absorbRecovery folds every cell's latest recovery pass (if the last
// failure triggered one) into the executor's books, in cell order so
// the transcript stays deterministic: shed sessions leave the live
// view and the flow tables, repaired sessions get their replacement
// trees re-compiled into rules.
func (x *executor) absorbRecovery(at float64) error {
	for i, c := range x.cells {
		rep := c.eng.LastRecovery()
		if rep == nil || rep == x.lastRec[i] {
			continue
		}
		x.lastRec[i] = rep
		x.res.RecoveryPasses++
		x.res.RepairedLocal += rep.Local
		x.res.RepairedReplan += rep.Replanned
		x.res.Shed += rep.Shed
		x.res.RecoverySeconds = append(x.res.RecoverySeconds, rep.Duration.Seconds())
		for _, o := range rep.Outcomes {
			if o.Mode == recov.ModeShed {
				if owner, ok := x.live[o.RequestID]; !ok || owner != c.id {
					return fmt.Errorf("scenario %q:%s recovery shed req %d the executor saw live on %q (live: %v)",
						x.cfg.Name, shardField(c.id), o.RequestID, owner, ok)
				}
				delete(x.live, o.RequestID)
				if x.ctrl != nil && x.ctrl.Installed(o.RequestID) {
					if err := x.ctrl.Uninstall(o.RequestID); err != nil {
						return fmt.Errorf("scenario %q: uninstall shed req %d: %w", x.cfg.Name, o.RequestID, err)
					}
				}
				continue
			}
			if x.ctrl == nil || o.Solution == nil {
				continue
			}
			// Re-compile the replacement tree. A replacement that overflows
			// a flow table is departed like any other rule rejection.
			if x.ctrl.Installed(o.RequestID) {
				if err := x.ctrl.Uninstall(o.RequestID); err != nil {
					return fmt.Errorf("scenario %q: uninstall repaired req %d: %w", x.cfg.Name, o.RequestID, err)
				}
			}
			if err := x.ctrl.Install(o.Solution.Request, o.Solution.Tree); err != nil {
				if !errors.Is(err, sdn.ErrTableFull) {
					return fmt.Errorf("scenario %q: reinstall repaired req %d: %w", x.cfg.Name, o.RequestID, err)
				}
				if err := x.release(at, o.RequestID); err != nil {
					return fmt.Errorf("scenario %q: depart rule-bounced repair req %d: %w", x.cfg.Name, o.RequestID, err)
				}
				delete(x.live, o.RequestID)
				x.res.RuleRejected++
				x.linef("t=%s rule-reject repaired req=%d", fmtG(at), o.RequestID)
			}
		}
		x.linef("t=%s recovery%s local=%d replan=%d shed=%d\n%s",
			fmtG(at), shardField(c.id), rep.Local, rep.Replanned, rep.Shed, rep.Fingerprint())
	}
	return nil
}

// liveIDs returns the executor's live request IDs in ascending order.
func (x *executor) liveIDs() []int {
	ids := make([]int, 0, len(x.live))
	for id := range x.live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
