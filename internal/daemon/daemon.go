// Package daemon runs the admission pipeline as a long-lived service:
// a shard router over journaled engines, an HTTP/JSON control surface
// (submit / release / apply / report), and crash recovery at boot.
//
// Durability is the write-ahead log of internal/wal — one log
// directory per shard under Config.WALDir ("shard-<id>/"). Boot opens
// every log, replays it into a freshly-built engine (same seeded
// substrate, so replay is bit-exact), re-adopts recovered sessions
// into the router's owner map, and only then binds the listener. A
// MANIFEST.json stamped with the substrate configuration guards
// restarts: recovering a log against a different topology or seed is
// refused instead of silently diverging.
//
// The admission queue is bounded: when Config.QueueDepth requests are
// already in flight, submit answers 429 with a Retry-After hint
// instead of queueing without bound. Every request runs under a
// server-side deadline (Config.RequestTimeout). SIGTERM handling is
// the caller's (see cmd/nfvmcastd): Server.Shutdown drains in-flight
// requests, takes a final snapshot per shard and closes the logs.
//
// Acks wait for the disk and nothing else does: each shard's engine
// acks a journaled operation from its committer once one fsync barrier
// covers it (internal/engine/committer.go), and snapshot upkeep runs
// on a background goroutine that handlers only signal.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/obs"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/shard"
	"nfvmcast/internal/topology"
	"nfvmcast/internal/wal"
)

// Config describes one daemon deployment.
type Config struct {
	// Topology names the substrate ("geant", "as1755", "as4755",
	// "waxman", "fattree"); Nodes sizes the synthetic ones. Seed feeds
	// topology synthesis and capacity placement — together these name
	// the exact network every shard runs, and recovery rebuilds.
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes,omitempty"`
	Seed     int64  `json:"seed"`
	// Policy is the admission planner, resolved by name from the
	// planner registry (core.Planners lists the accepted names).
	Policy string `json:"policy"`
	// Shards is the shard count (default 1). Workers tunes each
	// shard's engine.
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`
	// WALDir roots the per-shard log directories. Empty runs the
	// daemon in-memory (no durability, no recovery).
	WALDir string `json:"walDir,omitempty"`
	// SegmentBytes / SnapshotEvery / NoSync pass through to wal.Options.
	SegmentBytes  int64 `json:"segmentBytes,omitempty"`
	SnapshotEvery int   `json:"snapshotEvery,omitempty"`
	NoSync        bool  `json:"noSync,omitempty"`
	// QueueDepth bounds concurrently-admitted submissions; submissions
	// beyond it are answered 429 + Retry-After. Default 64.
	QueueDepth int `json:"queueDepth,omitempty"`
	// RequestTimeout is the server-side deadline per request.
	// Default 10s.
	RequestTimeout time.Duration `json:"-"`

	// testBuild overrides the per-shard substrate/planner factory —
	// conformance tests inject planners with scripted behaviour
	// (blocking, slow) to exercise deadline and backpressure paths
	// deterministically.
	testBuild func(id string) (*sdn.Network, core.Planner, error)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Topology == "" {
		out.Topology = "geant"
	}
	if out.Policy == "" {
		out.Policy = "Online_CP"
	}
	if out.Shards <= 0 {
		out.Shards = 1
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 64
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 10 * time.Second
	}
	return out
}

// buildNetwork constructs the seeded substrate named by cfg.
func buildNetwork(cfg *Config) (*sdn.Network, error) {
	n := cfg.Nodes
	if n == 0 {
		n = 100 // waxman's default size; the other topologies fix theirs
	}
	topo, err := topology.ByName(cfg.Topology, n, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	return sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(cfg.Seed)))
}

func buildPlanner(cfg *Config, n int) (core.Planner, error) {
	p, err := core.NewPlanner(cfg.Policy, core.PlannerOptions{Nodes: n})
	if err != nil {
		return nil, fmt.Errorf("daemon: unknown policy %q", cfg.Policy)
	}
	return p, nil
}

// BootStats reports what recovery did per shard at New time.
type BootStats struct {
	Shard       string `json:"shard"`
	LastLSN     uint64 `json:"lastLSN"`
	Records     int    `json:"records"`
	SnapshotLSN uint64 `json:"snapshotLSN,omitempty"`
	Adopted     int    `json:"adopted"`
	TornTail    bool   `json:"tornTail,omitempty"`
	Fingerprint string `json:"fingerprint"`
}

// Server is one running daemon: the router, its logs, and the HTTP
// control surface.
type Server struct {
	cfg      Config
	router   *shard.Router
	logs     map[string]*wal.Log // shard ID -> log (nil map without WALDir)
	registry *obs.Registry
	boot     []BootStats

	queue    chan struct{} // admission-slot semaphore
	draining chan struct{} // closed at Shutdown: submit answers 503
	drainOne sync.Once

	// Snapshot upkeep: handlers kick the upkeep goroutine (a signal,
	// never a wait); it exits when draining closes and closes
	// upkeepDone. Both are nil without a WAL.
	upkeep     chan struct{}
	upkeepDone chan struct{}

	mu      sync.Mutex // guards httpSrv
	httpSrv *http.Server
}

// shardIDs names the shards "s0".."s<n-1>".
func shardIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
	}
	return ids
}

// New boots a daemon: builds (or recovers) every shard and leaves the
// server ready for Handler/Serve. With Config.WALDir set, boot is the
// crash-recovery path — logs are opened, replayed into fresh engines,
// and the recovered sessions re-adopted — and a manifest stamp guards
// against recovering logs onto a different substrate.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.WALDir != "" {
		if err := checkManifest(cfg); err != nil {
			return nil, err
		}
	}
	registry := obs.NewRegistry()
	s := &Server{
		cfg:      cfg,
		logs:     make(map[string]*wal.Log),
		registry: registry,
		queue:    make(chan struct{}, cfg.QueueDepth),
		draining: make(chan struct{}),
	}
	pol := recov.DefaultPolicy()
	build := func(id string) (*sdn.Network, core.Planner, error) {
		nw, err := buildNetwork(&cfg)
		if err != nil {
			return nil, nil, err
		}
		planner, err := buildPlanner(&cfg, nw.NumNodes())
		if err != nil {
			return nil, nil, err
		}
		return nw, planner, nil
	}
	if cfg.testBuild != nil {
		build = cfg.testBuild
	}
	opts := shard.Options{
		Shards:   shardIDs(cfg.Shards),
		Build:    build,
		Workers:  cfg.Workers,
		Recovery: &pol,
		Registry: registry,
		// A few clock reads per submit fill the plan, commit and clone
		// histograms /metrics serves.
		SampleLatency: true,
	}
	if cfg.WALDir != "" {
		opts.Journal = func(id string) (engine.Journal, error) {
			l, err := wal.Open(filepath.Join(cfg.WALDir, "shard-"+id), wal.Options{
				SegmentBytes:  cfg.SegmentBytes,
				SnapshotEvery: cfg.SnapshotEvery,
				NoSync:        cfg.NoSync,
				Obs:           obs.NewWALObs(registry, id),
			})
			if err != nil {
				return nil, err
			}
			s.logs[id] = l
			return l.Journal(), nil
		}
	}
	router, err := shard.New(opts)
	if err != nil {
		s.closeLogs()
		return nil, err
	}
	s.router = router

	for _, id := range shardIDs(cfg.Shards) {
		l, ok := s.logs[id]
		if !ok {
			continue
		}
		eng := router.Engine(id)
		stats, rerr := l.Recover(eng)
		if rerr != nil {
			router.Close()
			s.closeLogs()
			return nil, fmt.Errorf("daemon: recover shard %s: %w", id, rerr)
		}
		adopted, aerr := router.AdoptSessions(id)
		if aerr != nil {
			router.Close()
			s.closeLogs()
			return nil, fmt.Errorf("daemon: adopt shard %s: %w", id, aerr)
		}
		fp, ferr := wal.Fingerprint(eng)
		if ferr != nil {
			router.Close()
			s.closeLogs()
			return nil, fmt.Errorf("daemon: fingerprint shard %s: %w", id, ferr)
		}
		s.boot = append(s.boot, BootStats{
			Shard:       id,
			LastLSN:     stats.LastLSN,
			Records:     stats.Records,
			SnapshotLSN: stats.SnapshotLSN,
			Adopted:     adopted,
			TornTail:    stats.TailError != nil,
			Fingerprint: fp,
		})
	}
	if cfg.WALDir != "" {
		if err := writeManifest(cfg); err != nil {
			router.Close()
			s.closeLogs()
			return nil, err
		}
		s.upkeep = make(chan struct{}, 1)
		s.upkeepDone = make(chan struct{})
		go s.upkeepLoop()
	}
	return s, nil
}

// Boot reports what recovery did per shard (empty without a WAL).
func (s *Server) Boot() []BootStats { return append([]BootStats(nil), s.boot...) }

// Router exposes the underlying shard router (tests, embedding).
func (s *Server) Router() *shard.Router { return s.router }

// kickUpkeep asks for snapshot upkeep after a state-changing request. It
// only signals: the snapshot a shard is due is taken by the upkeep
// goroutine, off the ack path of this and every concurrent request.
func (s *Server) kickUpkeep() {
	select {
	case s.upkeep <- struct{}{}:
	default: // a kick is already pending, or there is no WAL
	}
}

// upkeepLoop gives every shard past its snapshot cadence a snapshot,
// once per kick, until Shutdown begins.
func (s *Server) upkeepLoop() {
	defer close(s.upkeepDone)
	for {
		select {
		case <-s.upkeep:
			for id, l := range s.logs {
				if l.ShouldSnapshot() {
					_, _ = l.Snapshot(s.router.Engine(id)) // failure surfaces on the next barrier
				}
			}
		case <-s.draining:
			return
		}
	}
}

// Serve accepts connections on ln until Shutdown. When Shutdown has
// already begun, it closes ln and returns nil without serving.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	select {
	case <-s.draining:
		// Shutdown closes draining before it looks for httpSrv, so it
		// may have found none and will not come back to stop this one.
		_ = ln.Close() // nothing was accepted on it; the drain outcome is Shutdown's
		return nil
	default:
	}
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon: new submissions are refused, in-flight
// requests finish (bounded by ctx), the upkeep goroutine stops, each
// shard takes a final snapshot, and the router (engines, then their
// committers) and finally the logs close. Safe to call once; subsequent calls
// return the first outcome.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.drainOne.Do(func() {
		close(s.draining)
		s.mu.Lock()
		srv := s.httpSrv
		s.mu.Unlock()
		if srv != nil {
			err = srv.Shutdown(ctx)
		}
		if s.upkeepDone != nil {
			<-s.upkeepDone // no upkeep snapshot races the final ones
		}
		for id, l := range s.logs {
			if _, serr := l.Snapshot(s.router.Engine(id)); serr != nil && err == nil {
				err = fmt.Errorf("daemon: final snapshot shard %s: %w", id, serr)
			}
		}
		s.router.Close()
		if cerr := s.closeLogs(); cerr != nil && err == nil {
			err = cerr
		}
	})
	return err
}

func (s *Server) closeLogs() error {
	var first error
	for _, l := range s.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// manifestName stamps the WAL root with the substrate configuration.
const manifestName = "MANIFEST.json"

type manifest struct {
	Version  int    `json:"version"`
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes,omitempty"`
	Seed     int64  `json:"seed"`
	Policy   string `json:"policy"`
	Shards   int    `json:"shards"`
}

func manifestFor(cfg Config) manifest {
	return manifest{
		Version:  1,
		Topology: cfg.Topology,
		Nodes:    cfg.Nodes,
		Seed:     cfg.Seed,
		Policy:   cfg.Policy,
		Shards:   cfg.Shards,
	}
}

// checkManifest refuses to recover logs written by a differently-
// configured deployment: replay against the wrong substrate would not
// fail cleanly, it would diverge.
func checkManifest(cfg Config) error {
	data, err := os.ReadFile(filepath.Join(cfg.WALDir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil // fresh deployment
	}
	if err != nil {
		return fmt.Errorf("daemon: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("daemon: parse manifest: %w", err)
	}
	if want := manifestFor(cfg); m != want {
		return fmt.Errorf("daemon: WAL dir %s was written by a different deployment (%+v, this config %+v)",
			cfg.WALDir, m, want)
	}
	return nil
}

func writeManifest(cfg Config) error {
	data, err := json.MarshalIndent(manifestFor(cfg), "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.WALDir, manifestName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("daemon: write manifest: %w", err)
	}
	return os.Rename(tmp, path)
}
