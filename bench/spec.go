package main

// The benchmark's vocabulary: every metric it may print and the six
// workloads it runs. BENCHMARK.json at the repo root lists the same names,
// units and bounds; TestSpecMatchesBenchmarkJSON pins the two together.

// metricDef names one metric. Bound is the relative worsening a later
// change may cause before -compare (and the driver) calls it a regression;
// only end-to-end metrics carry one.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the system sees. Every workload reports all
// of them, so metrics that exist on only some workloads (release_p50_us,
// restart_s), that are 0 on a healthy run (failed_share), or that A/A runs
// cannot hold steady (admit_p99_us) live in perLayer. One bound serves all
// six workloads, so the noisiest sets it: see README.md, "Bounds".
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "requests_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "admit_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "admitted_share", Unit: "share", Better: "higher", Bound: 0.02},
	{Name: "mean_cost", Unit: "cost", Better: "lower", Bound: 0.15},
}

// perLayer metrics have no bound. A value of 0 on a workload means the
// layer is not on that workload's path (wal.* on the engine workloads, say).
var perLayer = []metricDef{
	// Caller-visible, but not gating: see endToEnd.
	{Name: "admit_p99_us", Unit: "us", Better: "lower"},
	{Name: "release_p50_us", Unit: "us", Better: "lower"},
	{Name: "failed_share", Unit: "share", Better: "lower"},
	{Name: "restart_s", Unit: "s", Better: "lower"},

	{Name: "graph.dijkstra_us", Unit: "us", Better: "lower"},
	{Name: "graph.kmb_us", Unit: "us", Better: "lower"},
	{Name: "sdn.clone_into_us", Unit: "us", Better: "lower"},
	{Name: "sdn.allocate_release_us", Unit: "us", Better: "lower"},

	{Name: "core.admit_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.commit_us", Unit: "us", Better: "lower"},
	{Name: "core.depart_us", Unit: "us", Better: "lower"},
	{Name: "core.reject_us", Unit: "us", Better: "lower"},
	{Name: "core.solve_us", Unit: "us", Better: "lower"},
	{Name: "core.allocs_per_plan", Unit: "count", Better: "lower"},

	{Name: "engine.admit_us", Unit: "us", Better: "lower"},
	{Name: "engine.depart_us", Unit: "us", Better: "lower"},
	{Name: "engine.self_us", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "engine.plans_per_admit", Unit: "count", Better: "lower"},
	{Name: "engine.replans_per_kreq", Unit: "count", Better: "lower"},
	{Name: "engine.conflicts_per_kreq", Unit: "count", Better: "lower"},
	{Name: "engine.clones_per_req", Unit: "count", Better: "lower"},

	{Name: "wal.append_self_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_self_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.barrier_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_req", Unit: "bytes", Better: "lower"},
	{Name: "wal.fsyncs_per_req", Unit: "count", Better: "lower"},
	{Name: "wal.snapshots_per_kreq", Unit: "count", Better: "lower"},
	{Name: "wal.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recover_us_per_record", Unit: "us", Better: "lower"},

	{Name: "shard.self_us", Unit: "us", Better: "lower"},
	{Name: "shard.max_share", Unit: "share", Better: "lower"},

	{Name: "daemon.decode_us", Unit: "us", Better: "lower"},
	{Name: "daemon.encode_us", Unit: "us", Better: "lower"},
	{Name: "daemon.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "daemon.loopback_self_us", Unit: "us", Better: "lower"},
	{Name: "daemon.http_429_share", Unit: "share", Better: "lower"},

	{Name: "proc.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kb_per_req", Unit: "KiB", Better: "lower"},
	{Name: "proc.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},

	{Name: "loadgen.window_spread", Unit: "share", Better: "lower"},
	{Name: "loadgen.admit_p999_us", Unit: "us", Better: "lower"},
	{Name: "trace.top_admit_us", Unit: "us", Better: "lower"},
	{Name: "trace.c1_requests_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// level is one prefix of the stack, bottom to top. The traced run pushes
// the same requests through each level a workload has.
type level int

const (
	levelSolve    level = iota // core.ApproMulti, offline only
	levelCore                  // core.Admitter on a bare network
	levelEngine                // engine.Engine, in memory
	levelJournal               // engine + wal journal, NoSync
	levelFsync                 // engine + wal journal, fsync per ack
	levelRouter                // shard.Router over the workload's engines
	levelHandler               // daemon handler called in process
	levelLoopback              // HTTP over a loopback TCP socket
)

var levelNames = [...]string{"solve", "core", "engine", "journal", "fsync", "router", "handler", "loopback"}

func (l level) String() string { return levelNames[l] }

// workload is one traffic mix. Names are permanent: later changes report
// against them.
type workload struct {
	Name string
	Why  string

	Topology string // "geant" or "waxman"
	Nodes    int    // waxman size
	Shards   int    // daemon workloads
	Durable  bool   // WAL with fsync
	Workers  int    // engine planning concurrency
	Clients  int    // closed-loop callers
	Tenants  int    // daemon workloads

	Pool    int  // >0: recycle this many requests under fresh IDs
	Hold    int  // >0: keep this many sessions live, FIFO
	Offline bool // DefaultGeneratorConfig + ApproMulti, no sessions

	Warmup   int     // requests of the discarded warm-up window
	CeilRate float64 // requests generated per measured second (the stream's capacity)
	Levels   []level // bottom to top; the last one is what the timed run drives
}

// topoSeed seeds topology synthesis and capacity placement on every
// substrate; it is part of the workload, not an argument.
const topoSeed = 42

// liveTail is how many sessions daemon-durable leaves admitted before its
// WAL directory is copied as a crash image.
const liveTail = 100

var workloads = []workload{
	{
		Name:     "daemon-durable",
		Why:      "production path: loopback HTTP, one shard, WAL fsync per ack on GEANT; wal and daemon do the work, core a few percent",
		Topology: "geant", Shards: 1, Durable: true, Clients: 2, Tenants: 8,
		Warmup: 1000, CeilRate: 5000,
		Levels: []level{levelCore, levelEngine, levelJournal, levelFsync, levelRouter, levelHandler, levelLoopback},
	},
	{
		Name:     "daemon-inmem-sharded",
		Why:      "bypasses wal: HTTP/JSON, shard routing and two engines on two cores carry it; a WAL change must not move it",
		Topology: "waxman", Nodes: 100, Shards: 2, Clients: 2, Tenants: 8,
		Warmup: 2000, CeilRate: 10000,
		Levels: []level{levelCore, levelEngine, levelRouter, levelHandler, levelLoopback},
	},
	{
		Name:     "engine-hot-pool",
		Why:      "512 recycled requests fit core's caches: cache-hit planning plus the engine's writer round trip (the CI-gated benchmark's shape)",
		Topology: "waxman", Nodes: 100, Clients: 1, Pool: 512,
		Warmup: 8000,
		Levels: []level{levelCore, levelEngine},
	},
	{
		Name:     "engine-loaded",
		Why:      "distinct requests with 200 sessions held live: cache patch/rebuild, large exponential weights, about 5% rejections; deterministic",
		Topology: "waxman", Nodes: 100, Clients: 1, Hold: 200,
		Warmup: 1500, CeilRate: 6000,
		Levels: []level{levelCore, levelEngine},
	},
	{
		Name:     "engine-large-parallel",
		Why:      "Waxman-250 with workers=2 and two callers: plan cost (Dijkstra, KMB, work-graph build) dominates and snapshot planning uses both cores",
		Topology: "waxman", Nodes: 250, Workers: 2, Clients: 2,
		Warmup: 1500, CeilRate: 8000,
		Levels: []level{levelCore, levelEngine},
	},
	{
		Name:     "offline-appromulti",
		Why:      "the paper's Algorithm 1 (K=3, uncapacitated) on Waxman-150: subset enumeration plus KMB, no engine, WAL or shared caches",
		Topology: "waxman", Nodes: 150, Clients: 1, Offline: true,
		Warmup: 100, CeilRate: 800,
		Levels: []level{levelSolve},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) top() level { return w.Levels[len(w.Levels)-1] }

func (w *workload) isDaemon() bool { return w.top() == levelLoopback }
