// Package nfvmcast is a library for NFV-enabled multicasting in
// software-defined networks, reproducing "Approximation and Online
// Algorithms for NFV-Enabled Multicasting in SDNs" (Xu, Liang, Huang,
// Jia, Guo, Galis — ICDCS 2017).
//
// It provides:
//
//   - ApproMulti — the paper's 2K-approximation for minimum-cost
//     NFV-enabled multicast trees (Appro_Multi / Appro_Multi_Cap);
//   - NewCPPlanner — the O(log |V|)-competitive online admission
//     algorithm with its exponential resource-cost model (Online_CP),
//     admitted through NewEngine or NewAdmitter;
//   - the evaluation baselines AlgOneServer, AlgOneServerNearest,
//     NewSPPlanner and NewSPStaticPlanner, and every other policy of the
//     planner registry (Planners, NewPlanner);
//   - the substrates everything runs on: a weighted-graph library,
//     GT-ITM-style topology generators plus embedded GÉANT and
//     ISP-scale topologies, an NFV service-chain model, and a
//     capacitated SDN with per-switch flow tables and a packet-replay
//     verifier.
//
// Quickstart:
//
//	topo, _ := nfvmcast.WaxmanDegree(100, nfvmcast.DefaultAvgDegree, 0.14, 42)
//	rng := rand.New(rand.NewSource(1))
//	nw, _ := nfvmcast.NewNetwork(topo, nfvmcast.DefaultNetworkConfig(), rng)
//	req := &nfvmcast.Request{
//		ID: 1, Source: 0, Destinations: []int{5, 9},
//		BandwidthMbps: 100,
//		Chain:         nfvmcast.MustChain(nfvmcast.NAT, nfvmcast.Firewall),
//	}
//	sol, _ := nfvmcast.ApproMulti(nw, req, nfvmcast.DefaultOptions())
//	fmt.Println(sol.OperationalCost)
//
// Configuration is one struct per constructor: ApproMulti takes an
// Options (start from DefaultOptions and set fields), NewEngine an
// EngineOptions, NewShardRouter a ShardOptions, OpenWAL a WALOptions
// and NewDaemon a DaemonConfig. An optional field left at zero selects
// its default; Options.K has none, so start from DefaultOptions.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduced evaluation.
package nfvmcast

import (
	"io"

	"nfvmcast/internal/core"
	"nfvmcast/internal/daemon"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/nfv"
	"nfvmcast/internal/obs"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/shard"
	"nfvmcast/internal/topology"
	"nfvmcast/internal/viz"
	"nfvmcast/internal/wal"
)

// Graph substrate.
type (
	// Graph is an undirected weighted graph (see internal/graph).
	Graph = graph.Graph
	// NodeID identifies a graph node.
	NodeID = graph.NodeID
	// EdgeID identifies a graph edge.
	EdgeID = graph.EdgeID
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
	// ShortestPaths is a single-source shortest-path result.
	ShortestPaths = graph.ShortestPaths
	// SteinerTree is an approximate Steiner tree.
	SteinerTree = graph.SteinerTree
	// RootedTree is a rooted tree view with LCA queries.
	RootedTree = graph.RootedTree
)

// NewGraph returns an empty graph over n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// Dijkstra computes single-source shortest paths.
func Dijkstra(g *Graph, src NodeID) (*ShortestPaths, error) { return graph.Dijkstra(g, src) }

// SteinerKMB computes a 2-approximate Steiner tree over terminals
// (Kou–Markowsky–Berman).
func SteinerKMB(g *Graph, terminals []NodeID) (*SteinerTree, error) {
	return graph.SteinerKMB(g, terminals)
}

// Bridges returns the cut edges of g (Tarjan, O(n+m)).
func Bridges(g *Graph) []EdgeID { return graph.Bridges(g) }

// SteinerExact computes an exact minimum Steiner tree by the
// Dreyfus–Wagner dynamic program (exponential in the terminal count;
// small instances only).
func SteinerExact(g *Graph, terminals []NodeID) (*SteinerTree, error) {
	return graph.SteinerExact(g, terminals)
}

// Topologies.
type (
	// Topology is a named network structure.
	Topology = topology.Topology
	// WaxmanParams parameterises the Waxman random-graph model.
	WaxmanParams = topology.WaxmanParams
	// TransitStubParams parameterises the transit-stub hierarchy.
	TransitStubParams = topology.TransitStubParams
)

// DefaultAvgDegree is the evaluation networks' target average degree.
const DefaultAvgDegree = topology.DefaultAvgDegree

// Topology constructors (see internal/topology).
var (
	Waxman         = topology.Waxman
	WaxmanDegree   = topology.WaxmanDegree
	TransitStub    = topology.TransitStub
	FatTree        = topology.FatTree
	FatTreeServers = topology.FatTreeServers
	GEANT          = topology.GEANT
	AS1755         = topology.AS1755
	AS4755         = topology.AS4755
	SyntheticISP   = topology.SyntheticISP
)

// NFV model.
type (
	// Function is a virtualised network-function type.
	Function = nfv.Function
	// Chain is an ordered service chain SC_k.
	Chain = nfv.Chain
)

// The five network-function types of the paper's evaluation.
const (
	Firewall     = nfv.Firewall
	Proxy        = nfv.Proxy
	NAT          = nfv.NAT
	IDS          = nfv.IDS
	LoadBalancer = nfv.LoadBalancer
)

// Chain constructors.
var (
	NewChain    = nfv.NewChain
	MustChain   = nfv.MustChain
	RandomChain = nfv.RandomChain
)

// Requests and routing trees.
type (
	// Request is an NFV-enabled multicast request r_k.
	Request = multicast.Request
	// PseudoTree is the routing graph realising a request.
	PseudoTree = multicast.PseudoTree
	// Hop is one directed link traversal of a pseudo tree.
	Hop = multicast.Hop
	// EdgeLoad is one link's traversal count in PseudoTree.LinkLoads.
	EdgeLoad = multicast.EdgeLoad
	// Generator draws random request workloads.
	Generator = multicast.Generator
	// GeneratorConfig parameterises a workload.
	GeneratorConfig = multicast.GeneratorConfig
)

// Workload constructors (paper §VI.A parameters).
var (
	NewGenerator           = multicast.NewGenerator
	DefaultGeneratorConfig = multicast.DefaultGeneratorConfig
	OnlineGeneratorConfig  = multicast.OnlineGeneratorConfig
)

// SDN substrate.
type (
	// Network is a capacitated SDN.
	Network = sdn.Network
	// NetworkConfig holds resource capacity and cost ranges.
	NetworkConfig = sdn.Config
	// Allocation is a request's resource bundle: its Links and
	// Servers are strictly ascending by ID.
	Allocation = sdn.Allocation
	// LinkShare is one link's bandwidth in an Allocation.
	LinkShare = sdn.LinkShare
	// ServerShare is one server's computing in an Allocation.
	ServerShare = sdn.ServerShare
	// Controller compiles trees into per-switch flow tables.
	Controller = sdn.Controller
	// FlowTable is one switch's rule set.
	FlowTable = sdn.FlowTable
	// Delivery is the outcome of a packet replay.
	Delivery = sdn.Delivery
)

// Network constructors (paper §VI.A resource ranges).
var (
	NewNetwork                 = sdn.NewNetwork
	NewNetworkWithServers      = sdn.NewNetworkWithServers
	DefaultNetworkConfig       = sdn.DefaultConfig
	NewController              = sdn.NewController
	NewControllerWithRuleLimit = sdn.NewControllerWithRuleLimit
)

// Core algorithms (the paper's contribution).
type (
	// Solution is an algorithm's answer for one request.
	Solution = core.Solution
	// Options configures ApproMulti; start from DefaultOptions (K = 3)
	// and set fields.
	Options = core.Options
	// CostModel is the online exponential resource-pricing model.
	CostModel = core.CostModel
	// Planner is the pure planning half of an admission algorithm.
	Planner = core.Planner
	// Admitter binds a Planner to the shared commit machinery
	// (single-goroutine use; prefer Engine).
	Admitter = core.Admitter
	// CPPlanner is the paper's online admission algorithm (Online_CP).
	CPPlanner = core.CPPlanner
	// SPPlanner is the adaptive SP baseline's planning half.
	SPPlanner = core.SPPlanner
	// SPStaticPlanner is the static-routes SP baseline's planning half.
	SPStaticPlanner = core.SPStaticPlanner
	// CPKPlanner is the K-server online extension's planning half.
	CPKPlanner = core.CPKPlanner
	// ApproCapPlanner adapts Appro_Multi_Cap to sequential admission.
	ApproCapPlanner = core.ApproCapPlanner
)

// Algorithm entry points.
var (
	ApproMulti          = core.ApproMulti
	ApproMultiContext   = core.ApproMultiContext
	AlgOneServer        = core.AlgOneServer
	AlgOneServerNearest = core.AlgOneServerNearest
	DefaultOptions      = core.DefaultOptions
	DefaultCostModel    = core.DefaultCostModel
	OperationalCost     = core.OperationalCost
	AllocationFor       = core.AllocationFor
	IsRejection         = core.IsRejection
	// IsCanceled reports whether an Admit/Plan error stems from
	// context cancellation rather than an admission decision.
	IsCanceled = core.IsCanceled
)

// Admission planners (plan/commit split): each proposes solutions
// against a read-only network view and pairs with NewAdmitter or
// NewEngine for commitment.
var (
	NewAdmitter        = core.NewAdmitter
	NewCPPlanner       = core.NewCPPlanner
	NewSPPlanner       = core.NewSPPlanner
	NewSPStaticPlanner = core.NewSPStaticPlanner
	NewCPKPlanner      = core.NewCPKPlanner
	NewApproCapPlanner = core.NewApproCapPlanner
	NewDistCPPlanner   = core.NewDistCPPlanner
	NewReconfPlanner   = core.NewReconfPlanner
)

// Planner registry: the one table every policy-by-name surface
// resolves against — nfvmcast -algorithm, nfvsim's online drivers, the
// daemon manifest, and scenario configs. Planners() lists the
// registered specs in name order; NewPlanner constructs by name
// (ErrUnknownPlanner on a miss); RegisterPlanner adds out-of-tree
// policies at init time.
type (
	// PlannerSpec is one registry row: a stable policy name, a
	// one-line description, and the constructor.
	PlannerSpec = core.PlannerSpec
	// PlannerOptions parameterises NewPlanner: the substrate size (for
	// the exponential cost-model defaults), a cost model, K, and
	// Appro_Multi_Cap's solve options, which each constructor reads as
	// it needs.
	PlannerOptions = core.PlannerOptions
	// DistCPPlanner splits a request's service chain across up to a
	// fixed number of servers (distributed chain placement) under the same
	// exponential cost model as Online_CP.
	DistCPPlanner = core.DistCPPlanner
	// ReconfPlanner wraps Online_CP and additionally migrates the
	// worst-drifted live sessions to cheaper trees after each
	// Engine.Apply and Engine.Reoptimize when the projected saving
	// clears its hysteresis factor.
	ReconfPlanner = core.ReconfPlanner
	// Reconfigurer is the capability interface the engine probes for:
	// planners implementing it run a migration pass after every
	// successful Apply or Reoptimize.
	Reconfigurer = core.Reconfigurer
)

var (
	RegisterPlanner = core.RegisterPlanner
	Planners        = core.Planners
	LookupPlanner   = core.LookupPlanner
	NewPlanner      = core.NewPlanner
)

// Registry-policy defaults (overridable through NewDistCPPlanner and
// NewReconfPlanner).
const (
	// DefaultSplitLimit is Dist_CP's chain-split budget.
	DefaultSplitLimit = core.DefaultSplitLimit
	// DefaultReconfHysteresis is Reconf_CP's migration threshold β: a
	// session migrates only when its current price is at least β× the
	// freshly planned tree's cost.
	DefaultReconfHysteresis = core.DefaultReconfHysteresis
	// DefaultReconfMigrations bounds migrations per pass.
	DefaultReconfMigrations = core.DefaultReconfMigrations
)

// Admission engine (single-writer concurrency over a capacitated SDN).
type (
	// Engine serializes all network mutations under one writer lock
	// while planning fans out across callers. The network changes only
	// through its typed operations — Admit, Depart, Apply (a batch of
	// typed maintenance mutations) and Reoptimize — each journaled when
	// the engine is durable. AdmitContext is Admit with cancellation:
	// it aborts planning between candidate evaluations, is never
	// counted as a rejection, and never leaves a request half-admitted.
	Engine = engine.Engine
	// EngineOptions configures NewEngine. Workers bounds concurrent
	// planning (0 or 1 sequential, n > 1 overlaps n planners on
	// residual snapshots, negative one per CPU); Obs attaches an
	// AdmissionObs; Recovery enables self-healing under a
	// RecoveryPolicy, whose Gamma <= 0 forces every repair through the
	// full re-plan path; Journal makes the engine durable (see WAL).
	EngineOptions = engine.Options
)

// NewEngine returns an admission engine owning nw that admits with
// planner's policy; Close it when done. The zero EngineOptions gives a
// sequential engine — byte-identical to an Admitter — that is
// unobserved, in-memory and without recovery:
//
//	pol := nfvmcast.DefaultRecoveryPolicy()
//	eng := nfvmcast.NewEngine(nw, planner, nfvmcast.EngineOptions{
//	    Workers:  8,
//	    Recovery: &pol,
//	})
func NewEngine(nw *Network, planner Planner, opts EngineOptions) *Engine {
	return engine.New(nw, planner, opts)
}

// Sharded multi-tenant admission (internal/shard): a router over a
// fixed set of N independent engines, one per tenant partition.
// Tenants map to shards by a ShardOptions.Assign pin for data-locality
// placement or by rendezvous hashing over every shard, sessions stay
// pinned to their admitting shard for release, and Report fans
// per-shard decision-transcript fingerprints into one deterministic
// merged digest. After Close every operation answers ErrEngineClosed.
type (
	// ShardRouter fans Admit/Release/Apply across shards by tenant key.
	ShardRouter = shard.Router
	// ShardOptions configures NewShardRouter (shard IDs, the per-shard
	// substrate Builder, engine knobs, the Assign placement hook).
	ShardOptions = shard.Options
	// ShardBuilder constructs one shard's network and planner.
	ShardBuilder = shard.Builder
	// ShardRouterReport is the deterministic fan-in over every shard.
	ShardRouterReport = shard.Report
	// ShardReport is one shard's view at Report time.
	ShardReport = shard.ShardReport
)

// NewShardRouter builds a router with one engine per shard ID:
//
//	r, err := nfvmcast.NewShardRouter(nfvmcast.ShardOptions{
//	    Shards: []string{"eu", "us"},
//	    Build: func(id string) (*nfvmcast.Network, nfvmcast.Planner, error) { ... },
//	})
//	sol, err := r.Admit("tenant-a", req) // routed by rendezvous hash
func NewShardRouter(opts ShardOptions) (*ShardRouter, error) { return shard.New(opts) }

// Failure recovery (internal/recover): the self-healing subsystem
// behind EngineOptions.Recovery.
type (
	// RecoveryPolicy tunes repair-vs-replan (γ), the re-plan retry
	// budget, and its exponential backoff.
	RecoveryPolicy = recov.Policy
	// RecoveryReport summarises one recovery pass (per-session
	// outcomes in ascending request-ID order).
	RecoveryReport = recov.Report
	// RecoveryOutcome records how one affected session was resolved.
	RecoveryOutcome = recov.Outcome
	// RecoveryMode names an outcome: local repair, full re-plan, shed.
	RecoveryMode = recov.Mode
)

// The recovery outcome modes.
const (
	RecoveryModeLocal  = recov.ModeLocal
	RecoveryModeReplan = recov.ModeReplan
	RecoveryModeShed   = recov.ModeShed
)

// DefaultRecoveryPolicy returns the recovery defaults (γ = 1.5, two
// re-plan retries, no backoff).
var DefaultRecoveryPolicy = recov.DefaultPolicy

// Observability (internal/obs): a lock-cheap metrics registry plus a
// structured admission-event stream, attachable to any Engine through
// EngineOptions.Obs and servable over HTTP in Prometheus text format.
type (
	// MetricsRegistry holds named counters, gauges and histograms.
	MetricsRegistry = obs.Registry
	// AdmissionObs binds one policy's admission lifecycle to a
	// registry (and, optionally, an event sink).
	AdmissionObs = obs.AdmissionObs
	// AdmissionObsOptions configures event emission and latency
	// sampling.
	AdmissionObsOptions = obs.AdmissionObsOptions
	// AdmissionEvent is one structured admission-lifecycle event.
	AdmissionEvent = obs.Event
	// EventSink receives admission events (JSONLinesSink, RingSink).
	EventSink = obs.Sink
	// NetworkGauges exports per-link/per-server residual-utilisation
	// and exponential-weight saturation gauges.
	NetworkGauges = obs.NetworkGauges
	// SaturationModel parameterises the weight-saturation gauges with
	// the exponential cost model's α, β, σ_v, σ_e.
	SaturationModel = obs.SaturationModel
)

// Observability constructors and servers.
var (
	NewMetricsRegistry = obs.NewRegistry
	NewAdmissionObs    = obs.NewAdmissionObs
	NewNetworkGauges   = obs.NewNetworkGauges
	NewJSONLinesSink   = obs.NewJSONLinesSink
	NewRingSink        = obs.NewRingSink
	// ServeMetrics starts an HTTP listener exposing the registry at
	// /metrics (Prometheus text), /metrics.json and /debug/pprof/.
	ServeMetrics = obs.ListenAndServe
	// MetricsHandler is the underlying http.Handler for embedding.
	MetricsHandler = obs.Handler
)

// Durability (internal/wal): an append-only write-ahead log of
// admission outcomes. The WAL logs decisions, not inputs — replay
// restores an engine's state bit-exactly without re-running any
// planner. Attach a log to an engine with
// EngineOptions{Journal: log.Journal()}: every state-changing outcome
// is journalled on the writer and made durable by the engine's
// committer before the caller's ack ("acked ⇒ logged"). Close the
// engine before the journal's log.
type (
	// WAL is an append-only outcome log over one directory
	// (CRC-framed records, rotated segments, snapshots).
	WAL = wal.Log
	// WALOptions configures OpenWAL (segment size, snapshot cadence,
	// fsync policy, observability).
	WALOptions = wal.Options
	// WALRecord is one logged outcome (admit, depart, repair, shed,
	// mutation batch).
	WALRecord = wal.Record
	// WALReplayStats summarises one Recover pass (snapshot LSN,
	// records replayed, torn-tail details).
	WALReplayStats = wal.ReplayStats
	// EngineJournal is the engine-side durability hook a WAL's
	// Journal() satisfies.
	EngineJournal = engine.Journal
)

// WAL defaults (see internal/wal).
const (
	DefaultWALSegmentBytes  = wal.DefaultSegmentBytes
	DefaultWALSnapshotEvery = wal.DefaultSnapshotEvery
)

// WAL entry points.
var (
	// OpenWAL opens (or creates) the log in dir and verifies the
	// existing chain up to a recoverable torn tail.
	OpenWAL = wal.Open
	// EngineFingerprint digests an engine's network residuals and live
	// sessions; two engines with equal fingerprints are in the same
	// admission state.
	EngineFingerprint = wal.Fingerprint
	// IsRecoverableTailError reports whether a Recover error is
	// confined to the newest segment's torn tail (crash mid-append)
	// rather than mid-chain corruption.
	IsRecoverableTailError = wal.IsRecoverableTail
)

// Daemon (internal/daemon): nfvmcastd's embeddable core — a WAL-backed
// shard router behind an HTTP/JSON API (submit/release/apply/report),
// with bounded admission queueing, per-request deadlines, graceful
// drain and crash recovery on boot.
type (
	// Daemon serves admission over HTTP with per-shard WALs.
	Daemon = daemon.Server
	// DaemonConfig sizes the daemon (substrate, shards, WAL layout,
	// queue depth, request timeout).
	DaemonConfig = daemon.Config
	// DaemonBootStats reports one shard's crash-recovery outcome.
	DaemonBootStats = daemon.BootStats
)

// NewDaemon builds the daemon: recover every shard from its WAL (or
// start fresh), verify the on-disk manifest matches cfg's substrate,
// and return a server ready for Serve:
//
//	d, err := nfvmcast.NewDaemon(nfvmcast.DaemonConfig{
//	    Topology: "geant", Policy: "Online_CP", Shards: 2, WALDir: dir,
//	})
//	ln, _ := net.Listen("tcp", addr)
//	go d.Serve(ln)
func NewDaemon(cfg DaemonConfig) (*Daemon, error) { return daemon.New(cfg) }

// WriteTopologyDOT renders a topology as Graphviz DOT (servers drawn
// as filled boxes).
func WriteTopologyDOT(w io.Writer, topo *Topology, servers []NodeID) error {
	return viz.WriteTopologyDOT(w, topo, servers)
}

// WriteTreeDOT renders a pseudo-multicast tree as Graphviz DOT
// (unprocessed hops dashed, processed solid).
func WriteTreeDOT(w io.Writer, nw *Network, names []string, tree *PseudoTree) error {
	return viz.WriteTreeDOT(w, nw, names, tree)
}

// Sentinel errors re-exported for errors.Is matching.
var (
	ErrRejected         = core.ErrRejected
	ErrNoFeasibleServer = core.ErrNoFeasibleServer
	ErrUnreachable      = core.ErrUnreachable
	ErrUnknownRequest   = core.ErrUnknownRequest
	ErrUnknownPlanner   = core.ErrUnknownPlanner
	ErrEngineClosed     = engine.ErrClosed
	ErrNoPlan           = engine.ErrNoPlan
	ErrCommitConflict   = engine.ErrCommitConflict
	ErrDegraded         = recov.ErrDegraded
	ErrUndelivered      = multicast.ErrUndelivered
	ErrDisconnected     = graph.ErrDisconnected
	ErrTableFull        = sdn.ErrTableFull
	ErrLinkDown         = sdn.ErrLinkDown
	ErrServerDown       = sdn.ErrServerDown
	// ErrMalformedAllocation rejects an Allocation whose Links or
	// Servers are not strictly ascending by ID.
	ErrMalformedAllocation = sdn.ErrMalformedAllocation
	// Shard-router sentinels.
	ErrUnknownShard   = shard.ErrUnknownShard
	ErrUnknownSession = shard.ErrUnknownSession
	// Durability sentinels.
	ErrDurability   = engine.ErrDurability
	ErrLogCorrupt   = wal.ErrLogCorrupt
	ErrLogTruncated = wal.ErrLogTruncated
)
