// Package scenario is a declarative black-box simulation harness over
// the admission engine. A scenario is a JSON/struct config composing
// three ingredients:
//
//   - arrival phases per tenant class (steady Poisson load, diurnal
//     sinusoidal load, flash-crowd spikes with correlated destination
//     sets), each class with its own bandwidth/chain/holding-time mix;
//   - a failure script (single link/server failures, correlated
//     regional failures around an epicenter, rolling maintenance
//     drains, capacity right-sizing) applied through the engine's
//     typed, all-or-nothing Apply surface;
//   - invariant checks evaluated continuously while the scenario
//     runs: residual bounds, conservation between the live table and
//     residual capacities, obs event-stream consistency, flow-table
//     budgets, and a no-wedged-writer liveness watchdog.
//
// The harness expands a config into one deterministic virtual-time
// timeline, and one executor drives it sequentially through a
// deployment target — a single engine, a shard router or a live
// daemon — so a scenario's fingerprint is byte-identical at any engine
// worker count: the same property the engine's determinism oracle
// pins, extended to whole workloads. Scenarios beyond the paper's Poisson-only
// evaluation (§VI) are what every later subsystem (sharding, daemon
// recovery, new planners) will be regression-tested against.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"nfvmcast/internal/core"
)

// Config is one declarative scenario.
type Config struct {
	// Name identifies the scenario in results and fingerprints.
	Name string `json:"name"`
	// Topology names the substrate: geant, as1755, as4755, waxman or
	// fattree (waxman takes Size nodes; the others fix their size).
	Topology TopologySpec `json:"topology"`
	// Policy is the admission algorithm, resolved by name from the
	// planner registry (core.Planners): Online_CP, SP, SP_Static,
	// Online_CPK, Appro_Multi_Cap, Dist_CP, Reconf_CP.
	Policy string `json:"policy"`
	// Workers is the engine's planning concurrency (0/1 sequential).
	// Decisions are identical at any value because the runner drives
	// arrivals sequentially; the knob exists so scenario suites can
	// exercise the snapshot plan/commit machinery.
	Workers int `json:"workers,omitempty"`
	// Shards splits the run across a shard router: each shard owns an
	// identical replica of the scenario substrate and its own engine,
	// and tenants spread across shards by rendezvous hash. 0 or 1
	// selects the single-engine path unchanged (byte-identical
	// results). Sharded runs cannot attach a rule-limited controller —
	// flow tables belong to one network.
	Shards int `json:"shards,omitempty"`
	// Seed drives every random draw of the scenario (workload
	// contents, arrival processes, hot destination sets).
	Seed int64 `json:"seed"`
	// HorizonHours bounds virtual time: arrivals stop at the horizon
	// (phases must fit inside it); sessions departing later are
	// departed at the end of the run.
	HorizonHours float64 `json:"horizonHours"`
	// Tenants are the workload classes; at least one is required.
	Tenants []Tenant `json:"tenants"`
	// Failures is the failure script, optional.
	Failures []FailureStep `json:"failures,omitempty"`
	// Recovery selects the engine's self-healing policy: "default"
	// (γ=1.5 repair-first), "replan" (γ=0 baseline), or "off". Empty
	// means "default" when the scenario has failure steps and "off"
	// otherwise.
	Recovery string `json:"recovery,omitempty"`
	// MaxRulesPerSwitch, when positive, attaches a rule-capacity-
	// limited SDN controller: every admitted tree is compiled into
	// per-switch forwarding rules, and a tree that overflows a flow
	// table is departed immediately and counted as a rule-capacity
	// rejection.
	MaxRulesPerSwitch int `json:"maxRulesPerSwitch,omitempty"`
	// CheckEveryEvents is the cadence of the expensive conservation
	// invariant (cheap bounds checks run every event). 0 selects the
	// default of 32.
	CheckEveryEvents int `json:"checkEveryEvents,omitempty"`
}

// TopologySpec selects the substrate.
type TopologySpec struct {
	Name string `json:"name"`
	// Size is the node count for the waxman topology (ignored by the
	// fixed topologies).
	Size int `json:"size,omitempty"`
}

// Tenant is one workload class: its arrival phases plus the request
// mix the class draws from.
type Tenant struct {
	// Name labels the class in results.
	Name string `json:"name"`
	// Phases are the class's arrival phases; at least one.
	Phases []Phase `json:"phases"`
	// BandwidthMbps is the uniform b_k range; zero selects the
	// paper's [50, 200].
	BandwidthMbps [2]float64 `json:"bandwidthMbps,omitempty"`
	// ChainLength is the inclusive service-chain length range; zero
	// selects the paper's [1, 3].
	ChainLength [2]int `json:"chainLength,omitempty"`
	// DestRatio is the per-request destination-ratio range; zero
	// selects the paper's online default [0.05, 0.2].
	DestRatio [2]float64 `json:"destRatio,omitempty"`
	// MeanHoldingHours is the exponential session-duration mean;
	// zero selects 1.0.
	MeanHoldingHours float64 `json:"meanHoldingHours,omitempty"`
}

// Phase kinds.
const (
	// PhaseSteady is a homogeneous Poisson arrival process at
	// RatePerHour over [StartHours, EndHours).
	PhaseSteady = "steady"
	// PhaseFlash is a flash crowd: Poisson arrivals at RatePerHour
	// whose destinations are drawn from a small hot set (the
	// correlated audience of a live event) with probability
	// HotAffinity.
	PhaseFlash = "flash"
	// PhaseDiurnal is a non-homogeneous Poisson process with rate
	// RatePerHour·(1 + Amplitude·sin(2πt/PeriodHours)), generated by
	// thinning.
	PhaseDiurnal = "diurnal"
)

// Phase is one arrival phase of a tenant.
type Phase struct {
	// Kind is steady, flash or diurnal.
	Kind string `json:"kind"`
	// StartHours and EndHours bound the phase, 0 <= start < end.
	StartHours float64 `json:"startHours"`
	EndHours   float64 `json:"endHours"`
	// RatePerHour is the (base) Poisson arrival rate λ.
	RatePerHour float64 `json:"ratePerHour"`
	// HotDestinations sizes the flash phase's correlated destination
	// pool (default 5).
	HotDestinations int `json:"hotDestinations,omitempty"`
	// HotAffinity is the probability a flash request's destination is
	// drawn from the hot pool rather than uniformly (default 0.8).
	HotAffinity float64 `json:"hotAffinity,omitempty"`
	// Amplitude is the diurnal modulation depth in [0, 1].
	Amplitude float64 `json:"amplitude,omitempty"`
	// PeriodHours is the diurnal period (default 24).
	PeriodHours float64 `json:"periodHours,omitempty"`
}

// Failure-step kinds.
const (
	// FailLink fails link ID at AtHours, restoring after
	// DurationHours (0 = permanent).
	FailLink = "link"
	// FailServer fails the server at node ID, restoring after
	// DurationHours.
	FailServer = "server"
	// FailRegion fails, atomically in one batch, every link within
	// RadiusHops of node Epicenter — a correlated regional outage —
	// restoring the batch after DurationHours.
	FailRegion = "region"
	// FailDrain rolls a maintenance drain over Servers: server i
	// fails at AtHours + i·StaggerHours and restores DurationHours
	// later, so the drain exercises the recovery ladder repeatedly
	// while earlier servers are already back.
	FailDrain = "drain"
	// FailResize right-sizes every link's bandwidth capacity to
	// Scale× its original value at AtHours (clamped so live
	// allocations are never cut), restoring original capacities after
	// DurationHours (0 = permanent).
	FailResize = "resize"
)

// FailureStep is one entry of the failure script.
type FailureStep struct {
	// Kind is link, server, region, drain or resize.
	Kind string `json:"kind"`
	// AtHours is when the step strikes.
	AtHours float64 `json:"atHours"`
	// DurationHours is how long the failure lasts; 0 means no
	// restore.
	DurationHours float64 `json:"durationHours,omitempty"`
	// ID is the failed link (kind link) or server node (kind server).
	ID int `json:"id,omitempty"`
	// Epicenter and RadiusHops shape a regional failure.
	Epicenter  int `json:"epicenter,omitempty"`
	RadiusHops int `json:"radiusHops,omitempty"`
	// Servers is the rolling-drain order; StaggerHours the spacing.
	// Server placement is drawn from the scenario seed, so configs that
	// should stay topology-portable can set Count instead: the drain
	// then rolls over the Count lowest-numbered server nodes.
	Servers      []int   `json:"servers,omitempty"`
	Count        int     `json:"count,omitempty"`
	StaggerHours float64 `json:"staggerHours,omitempty"`
	// Scale is the resize factor (e.g. 0.5 halves every link).
	Scale float64 `json:"scale,omitempty"`
}

// topologies the harness accepts.
var knownTopologies = map[string]bool{
	"geant": true, "as1755": true, "as4755": true, "waxman": true, "fattree": true,
}

// knownPolicy reports whether the admission policy resolves in the
// planner registry (core.Planners lists the accepted names).
func knownPolicy(name string) bool {
	_, ok := core.LookupPlanner(name)
	return ok
}

// recovery modes the harness accepts.
var knownRecovery = map[string]bool{
	"": true, "default": true, "replan": true, "off": true,
}

func positiveFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && x > 0
}

// Validate checks the whole config and returns the first problem
// found, in a deterministic order (config, tenants by index, phases by
// index, failure steps by index, then cross-step overlap checks). The
// error strings are part of the harness's contract: the validation
// tests pin them as goldens.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("scenario: config needs a name")
	}
	if !knownTopologies[c.Topology.Name] {
		return fmt.Errorf("scenario %q: unknown topology %q", c.Name, c.Topology.Name)
	}
	if c.Topology.Name == "waxman" && c.Topology.Size < 10 {
		return fmt.Errorf("scenario %q: waxman topology needs size >= 10, got %d", c.Name, c.Topology.Size)
	}
	if !knownPolicy(c.Policy) {
		return fmt.Errorf("scenario %q: unknown policy %q", c.Name, c.Policy)
	}
	if !positiveFinite(c.HorizonHours) {
		return fmt.Errorf("scenario %q: horizonHours %v must be positive", c.Name, c.HorizonHours)
	}
	if len(c.Tenants) == 0 {
		return fmt.Errorf("scenario %q: needs at least one tenant", c.Name)
	}
	if !knownRecovery[c.Recovery] {
		return fmt.Errorf("scenario %q: unknown recovery mode %q", c.Name, c.Recovery)
	}
	if c.MaxRulesPerSwitch < 0 {
		return fmt.Errorf("scenario %q: maxRulesPerSwitch %d must be >= 0", c.Name, c.MaxRulesPerSwitch)
	}
	if c.CheckEveryEvents < 0 {
		return fmt.Errorf("scenario %q: checkEveryEvents %d must be >= 0", c.Name, c.CheckEveryEvents)
	}
	if c.Shards < 0 {
		return fmt.Errorf("scenario %q: shards %d must be >= 0", c.Name, c.Shards)
	}
	if c.Shards > 1 && c.MaxRulesPerSwitch > 0 {
		return fmt.Errorf("scenario %q: sharded runs cannot attach a rule-limited controller (shards=%d, maxRulesPerSwitch=%d)",
			c.Name, c.Shards, c.MaxRulesPerSwitch)
	}
	for ti := range c.Tenants {
		if err := c.validateTenant(ti); err != nil {
			return err
		}
	}
	for fi := range c.Failures {
		if err := c.validateFailure(fi); err != nil {
			return err
		}
	}
	return c.validateFailureOverlaps()
}

func (c *Config) validateTenant(ti int) error {
	t := &c.Tenants[ti]
	if t.Name == "" {
		return fmt.Errorf("scenario %q: tenant %d needs a name", c.Name, ti)
	}
	for tj := 0; tj < ti; tj++ {
		if c.Tenants[tj].Name == t.Name {
			return fmt.Errorf("scenario %q: duplicate tenant name %q", c.Name, t.Name)
		}
	}
	if len(t.Phases) == 0 {
		return fmt.Errorf("scenario %q: tenant %q needs at least one phase", c.Name, t.Name)
	}
	if bw := t.BandwidthMbps; bw != [2]float64{} && (!positiveFinite(bw[0]) || bw[1] < bw[0]) {
		return fmt.Errorf("scenario %q: tenant %q: invalid bandwidth range %v", c.Name, t.Name, bw)
	}
	if cl := t.ChainLength; cl != [2]int{} && (cl[0] < 1 || cl[1] < cl[0]) {
		return fmt.Errorf("scenario %q: tenant %q: invalid chain length range %v", c.Name, t.Name, cl)
	}
	if dr := t.DestRatio; dr != [2]float64{} &&
		(!positiveFinite(dr[0]) || dr[1] < dr[0] || dr[1] > 1) {
		return fmt.Errorf("scenario %q: tenant %q: invalid destination ratio range %v", c.Name, t.Name, dr)
	}
	if t.MeanHoldingHours < 0 || math.IsNaN(t.MeanHoldingHours) || math.IsInf(t.MeanHoldingHours, 0) {
		return fmt.Errorf("scenario %q: tenant %q: invalid mean holding time %v", c.Name, t.Name, t.MeanHoldingHours)
	}
	for pi, p := range t.Phases {
		where := fmt.Sprintf("scenario %q: tenant %q: phase %d", c.Name, t.Name, pi)
		switch p.Kind {
		case PhaseSteady, PhaseFlash, PhaseDiurnal:
		default:
			return fmt.Errorf("%s: unknown kind %q", where, p.Kind)
		}
		if p.StartHours < 0 || p.EndHours <= p.StartHours {
			return fmt.Errorf("%s: bounds [%v, %v) are not an interval", where, p.StartHours, p.EndHours)
		}
		if p.EndHours > c.HorizonHours {
			return fmt.Errorf("%s: endHours %v exceeds horizon %v", where, p.EndHours, c.HorizonHours)
		}
		if !positiveFinite(p.RatePerHour) {
			return fmt.Errorf("%s: ratePerHour %v must be positive", where, p.RatePerHour)
		}
		if p.Kind == PhaseFlash {
			if p.HotDestinations < 0 {
				return fmt.Errorf("%s: hotDestinations %d must be >= 0", where, p.HotDestinations)
			}
			if p.HotAffinity < 0 || p.HotAffinity > 1 {
				return fmt.Errorf("%s: hotAffinity %v outside [0, 1]", where, p.HotAffinity)
			}
		}
		if p.Kind == PhaseDiurnal {
			if p.Amplitude < 0 || p.Amplitude > 1 {
				return fmt.Errorf("%s: amplitude %v outside [0, 1]", where, p.Amplitude)
			}
			if p.PeriodHours < 0 {
				return fmt.Errorf("%s: periodHours %v must be >= 0", where, p.PeriodHours)
			}
		}
	}
	return nil
}

func (c *Config) validateFailure(fi int) error {
	f := &c.Failures[fi]
	where := fmt.Sprintf("scenario %q: failure %d", c.Name, fi)
	if f.AtHours < 0 || f.AtHours >= c.HorizonHours {
		return fmt.Errorf("%s: atHours %v outside [0, %v)", where, f.AtHours, c.HorizonHours)
	}
	if f.DurationHours < 0 {
		return fmt.Errorf("%s: durationHours %v must be >= 0", where, f.DurationHours)
	}
	switch f.Kind {
	case FailLink, FailServer:
		if f.ID < 0 {
			return fmt.Errorf("%s: id %d must be >= 0", where, f.ID)
		}
	case FailRegion:
		if f.Epicenter < 0 {
			return fmt.Errorf("%s: epicenter %d must be >= 0", where, f.Epicenter)
		}
		if f.RadiusHops < 1 {
			return fmt.Errorf("%s: radiusHops %d must be >= 1", where, f.RadiusHops)
		}
	case FailDrain:
		if len(f.Servers) == 0 && f.Count < 1 {
			return fmt.Errorf("%s: drain needs servers or a positive count", where)
		}
		for _, v := range f.Servers {
			if v < 0 {
				return fmt.Errorf("%s: drain server %d must be >= 0", where, v)
			}
		}
		if f.StaggerHours < 0 {
			return fmt.Errorf("%s: staggerHours %v must be >= 0", where, f.StaggerHours)
		}
	case FailResize:
		if !positiveFinite(f.Scale) {
			return fmt.Errorf("%s: scale %v must be positive", where, f.Scale)
		}
	default:
		return fmt.Errorf("%s: unknown kind %q", where, f.Kind)
	}
	return nil
}

// failureWindow is one resource's outage interval, for overlap checks.
type failureWindow struct {
	step     int
	kind     string // "link" or "server"
	id       int
	from, to float64 // to = +Inf when permanent
}

// windows expands a step into per-resource outage windows. Region
// steps cannot be expanded without the topology, so they contribute a
// single synthetic window keyed on the epicenter; overlapping regional
// scripts are rare enough that the coarse check is the useful one.
func (f *FailureStep) windows(step int) []failureWindow {
	to := math.Inf(1)
	if f.DurationHours > 0 {
		to = f.AtHours + f.DurationHours
	}
	switch f.Kind {
	case FailLink:
		return []failureWindow{{step, "link", f.ID, f.AtHours, to}}
	case FailServer:
		return []failureWindow{{step, "server", f.ID, f.AtHours, to}}
	case FailRegion:
		return []failureWindow{{step, "region", f.Epicenter, f.AtHours, to}}
	case FailDrain:
		var out []failureWindow
		servers := f.Servers
		if len(servers) == 0 {
			// Count-based drains resolve to concrete servers only at run
			// time; synthetic negative IDs still catch two count-drains
			// rolling over the same (ordered) server set.
			for i := 0; i < f.Count; i++ {
				servers = append(servers, -1-i)
			}
		}
		for i, v := range servers {
			at := f.AtHours + float64(i)*f.StaggerHours
			wto := math.Inf(1)
			if f.DurationHours > 0 {
				wto = at + f.DurationHours
			}
			out = append(out, failureWindow{step, "server", v, at, wto})
		}
		return out
	default: // resize windows never conflict: the last write wins by design
		return nil
	}
}

// validateFailureOverlaps rejects scripts in which two windows fail
// the same resource at overlapping times — the double-down would make
// the later restore resurrect a link the earlier window still holds
// down, silently corrupting the script's intent.
func (c *Config) validateFailureOverlaps() error {
	var all []failureWindow
	for fi := range c.Failures {
		all = append(all, c.Failures[fi].windows(fi)...)
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if a.kind != b.kind || a.id != b.id || a.step == b.step {
				continue
			}
			if a.from < b.to && b.from < a.to {
				return fmt.Errorf(
					"scenario %q: failures %d and %d overlap on %s %d ([%g, %g) vs [%g, %g))",
					c.Name, a.step, b.step, a.kind, a.id, a.from, a.to, b.from, b.to)
			}
		}
	}
	return nil
}

// Parse decodes and validates a JSON scenario config. Unknown fields
// are rejected so schema typos fail loudly instead of silently
// changing the scenario.
func Parse(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("scenario: decode config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Load reads and validates a JSON scenario config from a file.
func Load(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Parse(f)
}
