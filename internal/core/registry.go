package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Planner registry: one table mapping policy names to constructors, so
// the CLIs, the scenario harness, the sim drivers and the daemon all
// resolve admission policies from the same place instead of each
// maintaining its own switch. Built-in policies register in init below;
// external packages may add their own through RegisterPlanner (before
// any concurrent use — registration is for program start-up).

// ErrUnknownPlanner is returned by NewPlanner for a name no PlannerSpec
// was registered under.
var ErrUnknownPlanner = errors.New("core: unknown planner")

// PlannerOptions carries every knob a registered constructor may need.
// Constructors read only the fields they understand and fall back to
// the evaluation defaults for zero values, so a caller that only knows
// the network size can build any policy with PlannerOptions{Nodes: n}.
// Dist_CP and Reconf_CP always take the defaults (DefaultSplitLimit,
// DefaultReconfHysteresis, DefaultReconfMigrations); their constructors
// take the parameters directly.
type PlannerOptions struct {
	// Nodes sizes the default exponential cost model (α = β = 2n,
	// σ_v = σ_e = n − 1) when Model is nil. Required by the online
	// policies unless Model is set.
	Nodes int
	// Model overrides the cost model of the Online_CP family.
	Model *CostModel
	// K is Online_CPK's server budget (default 2) and, through Solve,
	// Appro_Multi_Cap's subset bound.
	K int
	// Solve configures Appro_Multi_Cap (zero value: DefaultOptions).
	Solve Options
}

// model resolves the effective cost model.
func (o PlannerOptions) model() CostModel {
	if o.Model != nil {
		return *o.Model
	}
	return DefaultCostModel(o.Nodes)
}

// PlannerSpec describes one registered admission policy.
type PlannerSpec struct {
	// Name is the policy's registry key (e.g. "Online_CP"); it must
	// match what the constructed planner's Name() reports.
	Name string
	// Description is the one-line summary the CLIs print in their
	// policy tables.
	Description string
	// New constructs a fresh planner instance. Planners are stateful
	// (work-graph caches, memoised routes), so every engine, shard and
	// sweep point needs its own instance.
	New func(PlannerOptions) (Planner, error)
}

var (
	plannerMu  sync.RWMutex
	plannerTab = make(map[string]PlannerSpec)
)

// RegisterPlanner adds a policy to the registry. It panics on an empty
// name, a nil constructor, or a duplicate registration — all programmer
// errors at start-up, not runtime conditions.
func RegisterPlanner(spec PlannerSpec) {
	if spec.Name == "" {
		panic("core: RegisterPlanner with empty name")
	}
	if spec.New == nil {
		panic(fmt.Sprintf("core: RegisterPlanner(%q) with nil constructor", spec.Name))
	}
	plannerMu.Lock()
	defer plannerMu.Unlock()
	if _, dup := plannerTab[spec.Name]; dup {
		panic(fmt.Sprintf("core: RegisterPlanner(%q) called twice", spec.Name))
	}
	plannerTab[spec.Name] = spec
}

// Planners returns every registered policy, sorted by name.
func Planners() []PlannerSpec {
	plannerMu.RLock()
	defer plannerMu.RUnlock()
	out := make([]PlannerSpec, 0, len(plannerTab))
	for _, spec := range plannerTab {
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupPlanner returns the spec registered under name.
func LookupPlanner(name string) (PlannerSpec, bool) {
	plannerMu.RLock()
	defer plannerMu.RUnlock()
	spec, ok := plannerTab[name]
	return spec, ok
}

// NewPlanner constructs a fresh planner of the named policy, or an
// error wrapping ErrUnknownPlanner listing what is registered.
func NewPlanner(name string, opts PlannerOptions) (Planner, error) {
	spec, ok := LookupPlanner(name)
	if !ok {
		names := make([]string, 0, len(plannerTab))
		for _, s := range Planners() {
			names = append(names, s.Name)
		}
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownPlanner, name, names)
	}
	return spec.New(opts)
}

// The built-in policies. Descriptions feed the CLI policy tables, so
// keep them one line each.
func init() {
	RegisterPlanner(PlannerSpec{
		Name:        "Online_CP",
		Description: "paper's online admission: exponential costs, consolidated chain on one server",
		New:         func(o PlannerOptions) (Planner, error) { return NewCPPlanner(o.model()) },
	})
	RegisterPlanner(PlannerSpec{
		Name:        "SP",
		Description: "adaptive shortest-path baseline over residual capacities",
		New:         func(o PlannerOptions) (Planner, error) { return NewSPPlanner(), nil },
	})
	RegisterPlanner(PlannerSpec{
		Name:        "SP_Static",
		Description: "congestion-oblivious shortest-path baseline on static routes",
		New:         func(o PlannerOptions) (Planner, error) { return NewSPStaticPlanner(), nil },
	})
	RegisterPlanner(PlannerSpec{
		Name:        "Online_CPK",
		Description: "online admission with up to K replicated chain VMs (open-problem extension)",
		New: func(o PlannerOptions) (Planner, error) {
			k := o.K
			if k < 1 {
				k = 2
			}
			return NewCPKPlanner(o.model(), k)
		},
	})
	RegisterPlanner(PlannerSpec{
		Name:        "Appro_Multi_Cap",
		Description: "offline 2K-approximation run per arrival on the residual network",
		New: func(o PlannerOptions) (Planner, error) {
			opts := o.Solve
			if opts.K < 1 {
				opts = DefaultOptions()
				if o.K >= 1 {
					opts.K = o.K
				}
			}
			return NewApproCapPlanner(opts), nil
		},
	})
	RegisterPlanner(PlannerSpec{
		Name:        "Dist_CP",
		Description: "distributed chain placement: split the chain across up to two servers",
		New: func(o PlannerOptions) (Planner, error) {
			return NewDistCPPlanner(o.model(), DefaultSplitLimit)
		},
	})
	RegisterPlanner(PlannerSpec{
		Name:        "Reconf_CP",
		Description: "Online_CP plus drift-triggered migration of admitted trees after each maintenance operation",
		New: func(o PlannerOptions) (Planner, error) {
			return NewReconfPlanner(o.model(), DefaultReconfHysteresis, DefaultReconfMigrations)
		},
	})
}
