package scenario

import (
	"errors"
	"fmt"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/shard"
)

// target is one deployment the executor drives: a single engine, a
// shard router, or a live daemon over HTTP. admit, release and apply
// carry the workload; cells, owner and report expose what the
// invariants reconcile the executor's books against.
type target interface {
	// admit offers req on tenant's behalf. A refusal is an admission
	// without a solution; an error is a harness failure.
	admit(tenant string, req *multicast.Request) (admission, error)
	// release departs a live session. errShed reports a session the
	// target's own recovery shed before the executor could see it.
	release(reqID int) error
	// apply executes one failure-script step and returns the size of
	// every batch it applied, one per cell it struck; none is a no-op.
	apply(fa *failureAction) ([]int, error)
	// cells lists the in-process admission cells; a remote target has
	// none.
	cells() []*cell
	// owner names the cell that admitted reqID by the target's own
	// books ("" on a single engine).
	owner(reqID int) string
	// report returns the fleet's per-shard fan-in, nil for a single
	// engine.
	report() (*shard.Report, error)
}

// admission is one admit outcome: sol is nil for a rejection, and
// reason then says why.
type admission struct {
	shard  string // the admitting shard, "" for a single engine
	sol    *core.Solution
	reason string
}

// errShed is what a target without cells answers when asked to
// release a session its recovery ladder already shed.
var errShed = errors.New("session already shed")

// cell is one in-process admission cell: an engine and the network it
// owns. A single-engine run is one cell with an empty id; a sharded run
// has one cell per shard.
type cell struct {
	id    string
	nw    *sdn.Network
	eng   *engine.Engine
	aobs  *obs.AdmissionObs // session counters to reconcile, nil when the cell keeps them private
	caps0 []float64         // original link capacities, the resize baseline
}

func newCell(id string, nw *sdn.Network, eng *engine.Engine, aobs *obs.AdmissionObs) *cell {
	c := &cell{id: id, nw: nw, eng: eng, aobs: aobs, caps0: make([]float64, nw.NumEdges())}
	for e := range c.caps0 {
		c.caps0[e] = nw.BandwidthCap(e)
	}
	return c
}

// resources visits every link and then every server of the cell with
// its residual and its capacity.
func (c *cell) resources(visit func(kind string, id int, free, cap float64)) {
	for e := 0; e < c.nw.NumEdges(); e++ {
		visit("link", e, c.nw.ResidualBandwidth(e), c.nw.BandwidthCap(e))
	}
	for _, v := range c.nw.Servers() {
		visit("server", v, c.nw.ResidualCompute(v), c.nw.ComputeCap(v))
	}
}

// resizeMuts builds the cell's LinkCapacity batch for a resize step:
// every link moves to scale× its original capacity (scale < 0 restores
// the original), clamped so the cell's live allocations are never cut
// — right-sizing is a capacity decision, not an implicit failure.
func (c *cell) resizeMuts(scale float64) []engine.Mutation {
	muts := make([]engine.Mutation, 0, c.nw.NumEdges())
	for e := 0; e < c.nw.NumEdges(); e++ {
		capacity := scale * c.caps0[e]
		if scale < 0 {
			capacity = c.caps0[e]
		}
		if alloc := c.nw.BandwidthCap(e) - c.nw.ResidualBandwidth(e); capacity < alloc {
			capacity = alloc
		}
		if capacity == c.nw.BandwidthCap(e) {
			continue
		}
		muts = append(muts, engine.Mutation{Kind: engine.LinkCapacity, ID: e, Capacity: capacity})
	}
	return muts
}

// applyCells runs one failure step cell by cell, in cell order: a
// state batch strikes every cell, a resize is clamped per cell against
// that cell's own allocations. It returns the size of every batch
// applied; empty batches are skipped.
func applyCells(cells []*cell, fa *failureAction, apply func(c *cell, muts []engine.Mutation) error) ([]int, error) {
	var applied []int
	for _, c := range cells {
		muts := fa.muts
		if fa.scale != 0 {
			muts = c.resizeMuts(fa.scale)
		}
		if len(muts) == 0 {
			continue
		}
		if err := apply(c, muts); err != nil {
			return nil, err
		}
		applied = append(applied, len(muts))
	}
	return applied, nil
}

// engineTarget is one engine on the scenario substrate.
type engineTarget struct{ c *cell }

func newEngineTarget(cfg *Config) (target, func(), error) {
	nw, planner, err := substrate(cfg)
	if err != nil {
		return nil, nil, err
	}
	aobs := obs.NewAdmissionObs(obs.NewRegistry(), cfg.Policy, obs.AdmissionObsOptions{})
	eng := engine.New(nw, planner, engine.Options{
		Workers:  cfg.Workers,
		Obs:      aobs,
		Recovery: recoveryPolicy(cfg),
	})
	return &engineTarget{newCell("", nw, eng, aobs)}, eng.Close, nil
}

func (t *engineTarget) admit(_ string, req *multicast.Request) (admission, error) {
	sol, err := t.c.eng.Admit(req)
	if err != nil {
		return admission{reason: core.RejectReason(err)}, nil
	}
	return admission{sol: sol}, nil
}

func (t *engineTarget) release(reqID int) error {
	_, err := t.c.eng.Depart(reqID)
	return err
}

func (t *engineTarget) apply(fa *failureAction) ([]int, error) {
	return applyCells(t.cells(), fa, func(c *cell, muts []engine.Mutation) error {
		return c.eng.Apply(muts...)
	})
}

func (t *engineTarget) cells() []*cell                 { return []*cell{t.c} }
func (t *engineTarget) owner(int) string               { return "" }
func (t *engineTarget) report() (*shard.Report, error) { return nil, nil }

// routerTarget drives a shard.Router: each shard owns an identical
// replica of the scenario substrate (networkFor is a pure function of
// the config) and its own engine, and tenants spread across shards by
// the router's rendezvous hash. Request node IDs and failure-script
// mutations are valid on every replica, so a sharded run is the same
// workload horizontally scaled across independent admission cells;
// failure steps strike fleet-wide.
type routerTarget struct {
	router *shard.Router
	cs     []*cell
}

// shardIDs names the router's shards: shard00, shard01, ... — zero-
// padded so lexicographic report order matches numeric order up to 100
// shards.
func shardIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("shard%02d", i)
	}
	return ids
}

func newRouterTarget(cfg *Config) (target, func(), error) {
	router, err := shard.New(shard.Options{
		Shards:   shardIDs(cfg.Shards),
		Build:    func(string) (*sdn.Network, core.Planner, error) { return substrate(cfg) },
		Workers:  cfg.Workers,
		Recovery: recoveryPolicy(cfg),
		Registry: obs.NewRegistry(),
		Policy:   cfg.Policy,
	})
	if err != nil {
		return nil, nil, err
	}
	t := &routerTarget{router: router}
	for _, id := range router.ShardIDs() {
		t.cs = append(t.cs, newCell(id, router.Network(id), router.Engine(id), nil))
	}
	return t, router.Close, nil
}

func (t *routerTarget) admit(tenant string, req *multicast.Request) (admission, error) {
	sol, err := t.router.Admit(tenant, req)
	if err != nil {
		return admission{reason: core.RejectReason(err)}, nil
	}
	return admission{shard: t.router.Owner(req.ID), sol: sol}, nil
}

func (t *routerTarget) release(reqID int) error {
	_, err := t.router.Release(reqID)
	return err
}

func (t *routerTarget) apply(fa *failureAction) ([]int, error) {
	return applyCells(t.cs, fa, func(c *cell, muts []engine.Mutation) error {
		if err := t.router.ApplyShard(c.id, muts...); err != nil {
			return fmt.Errorf("shard %s: %w", c.id, err)
		}
		return nil
	})
}

func (t *routerTarget) cells() []*cell         { return t.cs }
func (t *routerTarget) owner(reqID int) string { return t.router.Owner(reqID) }

func (t *routerTarget) report() (*shard.Report, error) {
	rep := t.router.Report()
	return &rep, nil
}
