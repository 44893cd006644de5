// Package sdn models the software-defined network substrate: a
// switch/link graph in which a subset of switches carries NFV servers,
// per-link bandwidth and per-server computing capacities with residual
// tracking, atomic allocation/release of request resources, and a
// controller that compiles pseudo-multicast trees into per-switch
// forwarding rules and can replay packets over them.
package sdn

import (
	"fmt"
	"math/rand"
	"sort"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/topology"
)

// Config holds the resource parameterisation of the paper's
// evaluation (§VI.A).
type Config struct {
	// BandwidthCapRangeMbps is the uniform range of link capacities
	// B_e; the paper uses [1000, 10000] Mbps.
	BandwidthCapRangeMbps [2]float64
	// ComputeCapRangeMHz is the uniform range of server capacities
	// C_v; the paper uses [4000, 12000] MHz.
	ComputeCapRangeMHz [2]float64
	// LinkUnitCost is the uniform range of c_e, the operational cost
	// of one Mbps on a link.
	LinkUnitCost [2]float64
	// ServerUnitCost is the uniform range of c_v, the operational
	// cost of one MHz on a server.
	ServerUnitCost [2]float64
}

// DefaultConfig returns the paper's resource ranges with unit costs
// calibrated so computing and bandwidth costs are commensurate (see
// DESIGN.md §5).
func DefaultConfig() Config {
	return Config{
		BandwidthCapRangeMbps: [2]float64{1000, 10000},
		ComputeCapRangeMHz:    [2]float64{4000, 12000},
		LinkUnitCost:          [2]float64{0.5, 2.0},
		ServerUnitCost:        [2]float64{0.1, 0.5},
	}
}

func (c Config) validate() error {
	ranges := [][2]float64{
		c.BandwidthCapRangeMbps, c.ComputeCapRangeMHz, c.LinkUnitCost, c.ServerUnitCost,
	}
	for _, r := range ranges {
		if r[0] <= 0 || r[1] < r[0] {
			return fmt.Errorf("sdn: invalid config range %v", r)
		}
	}
	return nil
}

// Network is a capacitated SDN: the topology graph, the server-
// attached switch subset V_S, capacities, residuals and unit costs.
//
// Thread safety: all read accessors (Graph, Servers, capacities,
// residuals, unit costs, failure state) are pure lookups with no
// internal caching, so any number of goroutines may read one Network
// concurrently — core.ApproMulti's parallel candidate evaluation and
// concurrent solves over a shared network depend on this. Mutators
// (Allocate, Release, Restore, the failure injectors) are NOT safe to
// run concurrently with readers or each other; callers that interleave
// solving and allocation must serialise the mutations externally.
type Network struct {
	name    string
	g       *graph.Graph
	servers []graph.NodeID
	isSrv   []bool

	linkCap  []float64 // B_e, indexed by edge ID
	linkFree []float64 // residual bandwidth
	linkCost []float64 // c_e

	srvCap  map[graph.NodeID]float64 // C_v
	srvFree map[graph.NodeID]float64 // residual computing
	srvCost map[graph.NodeID]float64 // c_v

	linkDown map[graph.EdgeID]bool // failed links (see failure.go)
	srvDown  map[graph.NodeID]bool // failed servers

	structVer uint64 // bumped by failure injection (see StructureVersion)
	mutVer    uint64 // names the current residual state (see MutationVersion)
	lastVer   uint64 // the highest MutationVersion ever issued; only goes up
	undo      undoRecord

	// pending buffers failure/restore notifications until the owning
	// goroutine drains them (see events.go). Clones start empty.
	pending []ResourceEvent
}

// NewNetwork builds a network over topo with the given config, drawing
// capacities, unit costs and server locations from rng. Deterministic
// for a fixed rng state.
func NewNetwork(topo *topology.Topology, cfg Config, rng *rand.Rand) (*Network, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return NewNetworkWithServers(topo, cfg, topo.PickServers(rng), rng)
}

// NewNetworkWithServers is NewNetwork with an explicit server node
// set (used when reproducing fixed placements such as GÉANT's).
func NewNetworkWithServers(
	topo *topology.Topology, cfg Config, servers []graph.NodeID, rng *rand.Rand,
) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := topo.Graph
	n := g.NumNodes()
	if len(servers) == 0 {
		return nil, fmt.Errorf("sdn: network %q needs at least one server", topo.Name)
	}
	isSrv := make([]bool, n)
	srvs := make([]graph.NodeID, 0, len(servers))
	for _, v := range servers {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("sdn: %w: server %d with n=%d", graph.ErrNodeOutOfRange, v, n)
		}
		if isSrv[v] {
			continue
		}
		isSrv[v] = true
		srvs = append(srvs, v)
	}
	sort.Ints(srvs)

	uniform := func(r [2]float64) float64 { return r[0] + rng.Float64()*(r[1]-r[0]) }
	m := g.NumEdges()
	nw := &Network{
		name:     topo.Name,
		g:        g.Clone(),
		servers:  srvs,
		isSrv:    isSrv,
		linkCap:  make([]float64, m),
		linkFree: make([]float64, m),
		linkCost: make([]float64, m),
		srvCap:   make(map[graph.NodeID]float64, len(srvs)),
		srvFree:  make(map[graph.NodeID]float64, len(srvs)),
		srvCost:  make(map[graph.NodeID]float64, len(srvs)),
	}
	for e := 0; e < m; e++ {
		nw.linkCap[e] = uniform(cfg.BandwidthCapRangeMbps)
		nw.linkFree[e] = nw.linkCap[e]
		nw.linkCost[e] = uniform(cfg.LinkUnitCost)
	}
	for _, v := range srvs {
		nw.srvCap[v] = uniform(cfg.ComputeCapRangeMHz)
		nw.srvFree[v] = nw.srvCap[v]
		nw.srvCost[v] = uniform(cfg.ServerUnitCost)
	}
	return nw, nil
}

// Name returns the underlying topology name.
func (nw *Network) Name() string { return nw.name }

// Graph returns the network's link graph. Callers must not mutate it;
// algorithms that need different weights clone it.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// NumNodes reports |V|.
func (nw *Network) NumNodes() int { return nw.g.NumNodes() }

// NumEdges reports |E|.
func (nw *Network) NumEdges() int { return nw.g.NumEdges() }

// Servers returns a copy of the server-attached switch set V_S,
// sorted ascending.
func (nw *Network) Servers() []graph.NodeID {
	out := make([]graph.NodeID, len(nw.servers))
	copy(out, nw.servers)
	return out
}

// NumServers reports the number of server-attached switches, without
// copying the list as Servers does.
func (nw *Network) NumServers() int { return len(nw.servers) }

// VisitServers calls fn for every server-attached switch in ascending
// order, without allocating (Servers copies). If fn returns false,
// iteration stops early.
func (nw *Network) VisitServers(fn func(v graph.NodeID) bool) {
	for _, v := range nw.servers {
		if !fn(v) {
			return
		}
	}
}

// IsServer reports whether switch v has an attached server.
func (nw *Network) IsServer(v graph.NodeID) bool {
	return v >= 0 && v < len(nw.isSrv) && nw.isSrv[v]
}

// BandwidthCap returns B_e.
func (nw *Network) BandwidthCap(e graph.EdgeID) float64 { return nw.linkCap[e] }

// ResidualBandwidth returns the unallocated bandwidth of link e.
func (nw *Network) ResidualBandwidth(e graph.EdgeID) float64 { return nw.linkFree[e] }

// LinkUnitCost returns c_e, the cost of one Mbps on link e.
func (nw *Network) LinkUnitCost(e graph.EdgeID) float64 { return nw.linkCost[e] }

// ComputeCap returns C_v, or 0 when v has no server.
func (nw *Network) ComputeCap(v graph.NodeID) float64 { return nw.srvCap[v] }

// ResidualCompute returns the unallocated computing capacity at v, or
// 0 when v has no server.
func (nw *Network) ResidualCompute(v graph.NodeID) float64 { return nw.srvFree[v] }

// ServerUnitCost returns c_v, the cost of one MHz at server v.
func (nw *Network) ServerUnitCost(v graph.NodeID) float64 { return nw.srvCost[v] }

// LinkUtilization returns 1 - residual/capacity for link e.
func (nw *Network) LinkUtilization(e graph.EdgeID) float64 {
	return 1 - nw.linkFree[e]/nw.linkCap[e]
}

// ServerUtilization returns 1 - residual/capacity for server v.
func (nw *Network) ServerUtilization(v graph.NodeID) float64 {
	if !nw.IsServer(v) {
		return 0
	}
	return 1 - nw.srvFree[v]/nw.srvCap[v]
}

// StructureVersion is a counter of structural change: it starts at 0
// and increments whenever failure injection (SetLinkUp, SetServerUp)
// alters which links and servers are usable. Allocation and release
// only move residuals and do not bump it. Clones inherit the version,
// so algorithms that cache structure-dependent state (the pristine
// work graph and shortest-path trees of SPStaticPlanner) can key their
// caches on it and share them across residual snapshots of one
// network.
func (nw *Network) StructureVersion() uint64 { return nw.structVer }

// MutationVersion names the current residual state: it starts at 0,
// and every successful Allocate, Release, Restore, capacity resize and
// failure-injection call moves it. A mutation normally takes a fresh
// number, higher than any this network has issued; the one exception
// is a Release that exactly undoes the Allocate just before it, which
// restores the version that Allocate started from (see Release).
// Together with StructureVersion it therefore identifies a residual
// state of one logical network: equal pairs mean bit-identical
// capacities, residuals and up/down state, so planners can cache
// residual-derived structures (the re-priced work graph and its
// shortest-path trees) and find them again when a departure returns
// the residuals to a state already priced. Clones inherit the version
// and the fresh-number counter, so a clone's own mutations never reuse
// a number its origin had issued before the clone was taken. Origin
// and clone number their later mutations independently, so a cache
// keyed on the version serves one network plus read-only clones of it.
func (nw *Network) MutationVersion() uint64 { return nw.mutVer }

// Clone returns an independent deep copy of the network including
// residual state.
func (nw *Network) Clone() *Network {
	cp := &Network{
		name:     nw.name,
		g:        nw.g.Clone(),
		servers:  append([]graph.NodeID(nil), nw.servers...),
		isSrv:    append([]bool(nil), nw.isSrv...),
		linkCap:  append([]float64(nil), nw.linkCap...),
		linkFree: append([]float64(nil), nw.linkFree...),
		linkCost: append([]float64(nil), nw.linkCost...),
		srvCap:   make(map[graph.NodeID]float64, len(nw.srvCap)),
		srvFree:  make(map[graph.NodeID]float64, len(nw.srvFree)),
		srvCost:  make(map[graph.NodeID]float64, len(nw.srvCost)),

		structVer: nw.structVer,
		mutVer:    nw.mutVer,
		lastVer:   nw.lastVer,
	}
	for k, v := range nw.srvCap {
		cp.srvCap[k] = v
	}
	for k, v := range nw.srvFree {
		cp.srvFree[k] = v
	}
	for k, v := range nw.srvCost {
		cp.srvCost[k] = v
	}
	if len(nw.linkDown) > 0 {
		cp.linkDown = make(map[graph.EdgeID]bool, len(nw.linkDown))
		for k, v := range nw.linkDown {
			cp.linkDown[k] = v
		}
	}
	if len(nw.srvDown) > 0 {
		cp.srvDown = make(map[graph.NodeID]bool, len(nw.srvDown))
		for k, v := range nw.srvDown {
			cp.srvDown[k] = v
		}
	}
	return cp
}

// CloneInto overwrites dst with a deep copy of nw, reusing dst's
// storage (graph adjacency, residual vectors, maps)
// where shapes allow. Afterwards dst is equivalent to what Clone
// returns: fully independent, with no pending events. The admission
// engine's snapshot loop keeps one destination per planning slot, so
// steady-state snapshots stop allocating. dst must not alias nw and must not be concurrently read.
func (nw *Network) CloneInto(dst *Network) {
	dst.name = nw.name
	if dst.g == nil {
		dst.g = graph.New(0)
	}
	nw.g.CopyInto(dst.g)
	dst.servers = append(dst.servers[:0], nw.servers...)
	dst.isSrv = append(dst.isSrv[:0], nw.isSrv...)
	dst.linkCap = append(dst.linkCap[:0], nw.linkCap...)
	dst.linkFree = append(dst.linkFree[:0], nw.linkFree...)
	dst.linkCost = append(dst.linkCost[:0], nw.linkCost...)
	if dst.srvCap == nil {
		dst.srvCap = make(map[graph.NodeID]float64, len(nw.srvCap))
		dst.srvFree = make(map[graph.NodeID]float64, len(nw.srvFree))
		dst.srvCost = make(map[graph.NodeID]float64, len(nw.srvCost))
	} else {
		clear(dst.srvCap)
		clear(dst.srvFree)
		clear(dst.srvCost)
	}
	for k, v := range nw.srvCap {
		dst.srvCap[k] = v
	}
	for k, v := range nw.srvFree {
		dst.srvFree[k] = v
	}
	for k, v := range nw.srvCost {
		dst.srvCost[k] = v
	}
	clear(dst.linkDown)
	for k, v := range nw.linkDown {
		if dst.linkDown == nil {
			dst.linkDown = make(map[graph.EdgeID]bool, len(nw.linkDown))
		}
		dst.linkDown[k] = v
	}
	clear(dst.srvDown)
	for k, v := range nw.srvDown {
		if dst.srvDown == nil {
			dst.srvDown = make(map[graph.NodeID]bool, len(nw.srvDown))
		}
		dst.srvDown[k] = v
	}
	dst.structVer = nw.structVer
	dst.mutVer = nw.mutVer
	dst.lastVer = nw.lastVer
	dst.undo.after = 0 // the undo record stays with nw
	dst.pending = dst.pending[:0]
}

// Snapshot captures the residual state of a network for later Restore.
type Snapshot struct {
	linkFree []float64
	srvFree  map[graph.NodeID]float64
}

// RawSnapshot builds a Snapshot from explicit residual vectors — the
// deserialisation path of durable snapshots (internal/wal). Residuals
// are history-dependent floats (each allocate/release moves them by one
// addition, and float addition is order-dependent), so a recovery that
// re-derived them from capacities minus live allocations could drift in
// the last bits; restoring the recorded vectors verbatim keeps a
// recovered network bit-identical to the one that was snapshotted.
func RawSnapshot(linkFree []float64, srvFree map[graph.NodeID]float64) *Snapshot {
	s := &Snapshot{
		linkFree: append([]float64(nil), linkFree...),
		srvFree:  make(map[graph.NodeID]float64, len(srvFree)),
	}
	for k, v := range srvFree {
		s.srvFree[k] = v
	}
	return s
}

// Snapshot returns a copy of the current residual state.
func (nw *Network) Snapshot() *Snapshot {
	s := &Snapshot{
		linkFree: append([]float64(nil), nw.linkFree...),
		srvFree:  make(map[graph.NodeID]float64, len(nw.srvFree)),
	}
	for k, v := range nw.srvFree {
		s.srvFree[k] = v
	}
	return s
}

// Restore rewinds residual state to a snapshot taken from this
// network. A snapshot that does not fit is rejected before any residual
// changes: it must cover every link and server, and no residual in it
// may exceed the current capacity, which a resize since the snapshot
// may have shrunk.
func (nw *Network) Restore(s *Snapshot) error {
	if len(s.linkFree) != len(nw.linkFree) {
		return fmt.Errorf("sdn: snapshot of %d links applied to %d links",
			len(s.linkFree), len(nw.linkFree))
	}
	for e, free := range s.linkFree {
		if !(free <= nw.linkCap[e]) {
			return fmt.Errorf("sdn: snapshot leaves link %d %v Mbps free, above its capacity %v Mbps",
				e, free, nw.linkCap[e])
		}
	}
	for k := range nw.srvFree {
		free, ok := s.srvFree[k]
		if !ok {
			return fmt.Errorf("sdn: snapshot missing server %d", k)
		}
		if !(free <= nw.srvCap[k]) {
			return fmt.Errorf("sdn: snapshot leaves server %d %v MHz free, above its capacity %v MHz",
				k, free, nw.srvCap[k])
		}
	}
	copy(nw.linkFree, s.linkFree)
	for k := range nw.srvFree {
		nw.srvFree[k] = s.srvFree[k]
	}
	nw.bumpVersion()
	return nil
}

// bumpVersion names the state a mutation just produced with a fresh
// MutationVersion.
func (nw *Network) bumpVersion() {
	nw.lastVer++
	nw.mutVer = nw.lastVer
}
