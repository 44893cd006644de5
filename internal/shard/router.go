// Package shard routes multi-tenant admission across N independent
// single-writer engines. One engine per shard is the scaling model the
// ROADMAP's production north-star calls for: a tenant's requests,
// departures and maintenance always land on the one engine that owns
// the tenant's slice of substrate, so every engine keeps the
// single-writer determinism and recovery machinery of
// internal/engine unchanged, and shards never contend on each other's
// networks. Tenants are mapped to shards with rendezvous (highest-
// random-weight) hashing over the currently active shards, which makes
// shard sets rebalance-safe: draining a shard re-homes only that
// shard's tenants, every other tenant keeps its engine.
//
// Sessions, however, are pinned: a Release must free resources on the
// shard that admitted the session even if its tenant has been re-homed
// since, so the router keeps a request → owning-shard map and drains
// departures through it rather than through the tenant hash.
//
// Determinism stays shard-local. Each shard appends its admission
// decisions to a transcript hashed incrementally (SHA-256); a
// sequentially-driven router reproduces byte-identical per-shard
// fingerprints at every engine worker count and batch window (the
// oracle test pins workers {1,4,8} × windows {1,16,64}), and Report
// fans the per-shard fingerprints into one merged digest in shard-ID
// order. There is no cross-shard ordering claim — two shards' engines
// interleave freely — which is exactly why the fingerprints are kept
// per shard.
package shard

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// Sentinel errors of the routing layer. Admission rejections from the
// engines pass through unchanged (they satisfy core.IsRejection).
var (
	// ErrNoActiveShards is returned when every shard is draining or
	// stopped and a new admission has nowhere to route.
	ErrNoActiveShards = errors.New("shard: no active shards")
	// ErrUnknownShard is returned for shard IDs the router does not own.
	ErrUnknownShard = errors.New("shard: unknown shard")
	// ErrUnknownSession is returned by Release for request IDs no shard
	// admitted (or that already departed, or recovery shed).
	ErrUnknownSession = errors.New("shard: unknown session")
	// ErrShardStopped is returned when an operation targets a stopped
	// shard.
	ErrShardStopped = errors.New("shard: shard is stopped")
	// ErrShardUnavailable is returned when an Assign placement pins a
	// tenant to a shard that is draining or stopped. Pinned tenants
	// cannot re-home (their substrate lives on exactly one shard), so
	// the router refuses rather than silently routing elsewhere.
	ErrShardUnavailable = errors.New("shard: pinned shard unavailable")
	// ErrNotDrained is returned by Stop while the shard still holds
	// live sessions.
	ErrNotDrained = errors.New("shard: shard still holds live sessions")
)

// State is a shard's lifecycle position.
type State int

const (
	// Active shards receive newly-routed tenants.
	Active State = iota
	// Draining shards accept no new admissions — their tenants re-home
	// to the remaining active shards — but still serve departures and
	// maintenance for the sessions they hold.
	Draining
	// Stopped shards have closed their engine.
	Stopped
)

// String names the state for reports and listings.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Builder constructs one shard's substrate: its network and planner.
// Called once per shard ID at router construction; each shard must get
// its own network (engines never share one).
type Builder func(shardID string) (*sdn.Network, core.Planner, error)

// Options configures a Router.
type Options struct {
	// Shards lists the shard IDs, each owning one engine. IDs must be
	// unique and non-empty; report order is ascending ID.
	Shards []string
	// Build constructs each shard's network and planner.
	Build Builder
	// Workers is each engine's planning concurrency (see
	// engine.Options.Workers).
	Workers int
	// BatchWindow is each engine's commit-epoch window (see
	// engine.Options.BatchWindow).
	BatchWindow int
	// Recovery enables each engine's self-healing ladder.
	Recovery *recov.Policy
	// Registry, when set, registers one AdmissionObs per shard with a
	// shard label, all on this registry.
	Registry *obs.Registry
	// Policy is the policy label for the per-shard instruments
	// (defaults to the planner's Name when empty).
	Policy string
	// Events receives every shard's admission events, each stamped
	// with its shard ID.
	Events obs.Sink
	// SampleLatency enables the per-shard latency histograms.
	SampleLatency bool
	// Journal, when set, attaches one durability journal per shard
	// (engine.Options.Journal): the factory is called once per shard
	// ID at construction, and each shard's engine appends its outcomes
	// to its own write-ahead log (internal/wal keeps one log directory
	// per shard). Returning a nil journal leaves that shard in-memory.
	Journal func(shardID string) (engine.Journal, error)
	// Assign, when set, overrides rendezvous placement: it maps a
	// tenant to the shard ID that must own it (data-locality pinning —
	// the tenant's substrate exists only on that shard). Returning ""
	// falls back to rendezvous hashing for that tenant. Assigned IDs
	// must name a configured shard (ErrUnknownShard otherwise), and the
	// shard must be Active (ErrShardUnavailable otherwise): pinned
	// tenants never re-home on drain. The function must be pure and
	// stable — the router may call it on any routing decision.
	Assign func(tenant string) string
}

// shardState is one shard: its engine, lifecycle position and
// transcript hash. The transcript mutex serialises decision recording;
// engines handle their own concurrency. applyMu pairs each maintenance
// batch with the recovery report it produced (see Router.apply).
type shardState struct {
	id  string
	eng *engine.Engine
	nw  *sdn.Network

	applyMu sync.Mutex

	mu       sync.Mutex
	state    State
	digest   hash.Hash
	lines    int
	admitted int
	rejected int
	departed int
}

// record appends one transcript line to the shard's running digest.
func (s *shardState) record(line string) {
	s.digest.Write([]byte(line))
	s.digest.Write([]byte{'\n'})
	s.lines++
}

// Router fans Admit/Release/Apply across the shards by tenant key.
// All methods are safe for concurrent use.
type Router struct {
	mu     sync.RWMutex
	shards map[string]*shardState
	order  []string       // ascending shard IDs
	owner  map[int]string // request ID -> admitting shard
	assign func(tenant string) string
}

// New builds a router with one engine per shard ID.
func New(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("shard: at least one shard required")
	}
	if opts.Build == nil {
		return nil, fmt.Errorf("shard: Options.Build is required")
	}
	r := &Router{
		shards: make(map[string]*shardState, len(opts.Shards)),
		owner:  make(map[int]string),
		assign: opts.Assign,
	}
	for _, id := range opts.Shards {
		if id == "" {
			return nil, fmt.Errorf("shard: empty shard ID")
		}
		if _, dup := r.shards[id]; dup {
			return nil, fmt.Errorf("shard: duplicate shard ID %q", id)
		}
		nw, planner, err := opts.Build(id)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("shard %q: %w", id, err)
		}
		var aobs *obs.AdmissionObs
		if opts.Registry != nil {
			policy := opts.Policy
			if policy == "" {
				policy = planner.Name()
			}
			aobs = obs.NewAdmissionObs(opts.Registry, policy, obs.AdmissionObsOptions{
				Events:        opts.Events,
				SampleLatency: opts.SampleLatency,
				Shard:         id,
			})
		}
		var journal engine.Journal
		if opts.Journal != nil {
			journal, err = opts.Journal(id)
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("shard %q: journal: %w", id, err)
			}
		}
		eng := engine.New(nw, planner, engine.Options{
			Workers:     opts.Workers,
			Obs:         aobs,
			Recovery:    opts.Recovery,
			BatchWindow: opts.BatchWindow,
			Journal:     journal,
		})
		r.shards[id] = &shardState{id: id, eng: eng, nw: nw, digest: sha256.New()}
		r.order = append(r.order, id)
	}
	sort.Strings(r.order)
	return r, nil
}

// rendezvous scores (tenant, shard) pairs; the active shard with the
// highest score owns the tenant. FNV-1a over "tenant\x00shard" is
// stable across runs and processes.
func rendezvous(tenant, shardID string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(shardID))
	return h.Sum64()
}

// route picks the owning shard for tenant: the Assign pin when one is
// configured and answers, rendezvous over the active shards otherwise.
// Caller holds at least the read lock.
func (r *Router) route(tenant string) (*shardState, error) {
	if r.assign != nil {
		if id := r.assign(tenant); id != "" {
			s, ok := r.shards[id]
			if !ok {
				return nil, fmt.Errorf("%w: %q (assigned to tenant %q)",
					ErrUnknownShard, id, tenant)
			}
			if s.state != Active {
				return nil, fmt.Errorf("%w: %s is %s (tenant %q)",
					ErrShardUnavailable, id, s.state, tenant)
			}
			return s, nil
		}
	}
	var best *shardState
	var bestScore uint64
	for _, id := range r.order {
		s := r.shards[id]
		if s.state != Active {
			continue
		}
		score := rendezvous(tenant, id)
		// Ties (astronomically unlikely) break to the smaller ID via
		// the sorted iteration order.
		if best == nil || score > bestScore {
			best, bestScore = s, score
		}
	}
	if best == nil {
		return nil, ErrNoActiveShards
	}
	return best, nil
}

// ShardFor reports which shard tenant's new admissions currently route
// to.
func (r *Router) ShardFor(tenant string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, err := r.route(tenant)
	if err != nil {
		return "", err
	}
	return s.id, nil
}

// Admit routes req to tenant's shard and admits it there. On success
// the session is pinned to that shard for its lifetime (Release finds
// it even after a rebalance). Request IDs must be unique across
// tenants — they key the session-owner map.
func (r *Router) Admit(tenant string, req *multicast.Request) (*core.Solution, error) {
	return r.AdmitContext(context.Background(), tenant, req)
}

// AdmitContext is Admit with cancellation (see engine.AdmitContext).
// Canceled admissions record no transcript line and no ownership.
func (r *Router) AdmitContext(ctx context.Context, tenant string, req *multicast.Request) (*core.Solution, error) {
	r.mu.RLock()
	s, err := r.route(tenant)
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}

	sol, aerr := s.eng.AdmitContext(ctx, req)
	if core.IsCanceled(aerr) {
		return nil, aerr
	}
	if aerr == nil {
		r.mu.Lock()
		r.owner[req.ID] = s.id
		r.mu.Unlock()
	}

	s.mu.Lock()
	if aerr == nil {
		s.admitted++
		s.record(admitLine(tenant, req.ID, sol))
	} else {
		s.rejected++
		s.record(fmt.Sprintf("admit tenant=%s req=%d reject reason=%s",
			tenant, req.ID, core.RejectReason(aerr)))
	}
	s.mu.Unlock()
	return sol, aerr
}

// admitLine renders an admitted decision with exact float formatting,
// so equal decisions produce byte-identical transcripts.
func admitLine(tenant string, reqID int, sol *core.Solution) string {
	srv := make([]string, len(sol.Servers))
	for i, v := range sol.Servers {
		srv[i] = strconv.Itoa(int(v))
	}
	return fmt.Sprintf("admit tenant=%s req=%d ok cost=%s servers=%s",
		tenant, reqID,
		strconv.FormatFloat(sol.OperationalCost, 'g', -1, 64),
		strings.Join(srv, ","))
}

// Release departs the session with reqID on the shard that admitted
// it, regardless of where its tenant routes today.
func (r *Router) Release(reqID int) (*core.Solution, error) {
	r.mu.RLock()
	id, ok := r.owner[reqID]
	s := r.shards[id]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: request %d", ErrUnknownSession, reqID)
	}
	if s.stateLocked() == Stopped {
		// Ownership is kept: the session's resources are gone with the
		// engine, but the caller can still see who owned it.
		return nil, fmt.Errorf("%w: %s (request %d)", ErrShardStopped, id, reqID)
	}
	sol, err := s.eng.Depart(reqID)
	if errors.Is(err, core.ErrUnknownRequest) {
		// A recovery pass the router did not drive (RecoverNow on the
		// shard's engine) shed the session and released its resources
		// already: the session is unknown now, and its owner entry goes
		// with it.
		err = fmt.Errorf("%w: request %d was shed by %s", ErrUnknownSession, reqID, id)
	} else if err != nil {
		return nil, err
	}
	r.mu.Lock()
	delete(r.owner, reqID)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.departed++
	s.record(fmt.Sprintf("depart req=%d cost=%s",
		reqID, strconv.FormatFloat(sol.OperationalCost, 'g', -1, 64)))
	s.mu.Unlock()
	return sol, nil
}

// Owner reports which shard admitted reqID ("" for unknown or
// already-released sessions).
func (r *Router) Owner(reqID int) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.owner[reqID]
}

func (s *shardState) stateLocked() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Apply routes a typed mutation batch to tenant's shard (see
// engine.Apply): all-or-nothing against that one shard's network,
// every other shard untouched.
func (r *Router) Apply(tenant string, muts ...engine.Mutation) error {
	r.mu.RLock()
	s, err := r.route(tenant)
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	return r.apply(s, muts)
}

// ApplyShard routes a mutation batch to a shard by ID — maintenance
// that targets substrate rather than a tenant.
func (r *Router) ApplyShard(shardID string, muts ...engine.Mutation) error {
	s, err := r.shard(shardID)
	if err != nil {
		return err
	}
	if s.stateLocked() == Stopped {
		return fmt.Errorf("%w: %s", ErrShardStopped, shardID)
	}
	return r.apply(s, muts)
}

// ApplyAll applies one mutation batch to every non-stopped shard, in
// shard-ID order (fleet-wide maintenance: a region failing in every
// tenant's view). The first error aborts the sweep.
func (r *Router) ApplyAll(muts ...engine.Mutation) error {
	for _, id := range r.ShardIDs() {
		s, err := r.shard(id)
		if err != nil {
			return err
		}
		if s.stateLocked() == Stopped {
			continue
		}
		if err := r.apply(s, muts); err != nil {
			return fmt.Errorf("shard %s: %w", id, err)
		}
	}
	return nil
}

// apply runs a mutation batch on shard s and then drops the owner entry
// of every session the recovery pass it triggered shed, so a shed
// session that no client ever releases does not hold its entry forever.
// applyMu keeps another batch's pass from replacing the report in
// between.
func (r *Router) apply(s *shardState, muts []engine.Mutation) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	prev := s.eng.LastRecovery()
	err := s.eng.Apply(muts...)
	if rep := s.eng.LastRecovery(); rep != nil && rep != prev {
		r.mu.Lock()
		for _, o := range rep.Outcomes {
			if o.Mode == recov.ModeShed && r.owner[o.RequestID] == s.id {
				delete(r.owner, o.RequestID)
			}
		}
		r.mu.Unlock()
	}
	return err
}

// shard resolves an ID.
func (r *Router) shard(id string) (*shardState, error) {
	r.mu.RLock()
	s, ok := r.shards[id]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownShard, id)
	}
	return s, nil
}

// Engine exposes a shard's engine (read-mostly: scenario invariants,
// tests). Returns nil for unknown IDs.
func (r *Router) Engine(id string) *engine.Engine {
	s, err := r.shard(id)
	if err != nil {
		return nil
	}
	return s.eng
}

// Network exposes a shard's network. Reads are safe while no operation
// is in flight on that shard (the same contract as engine.New).
func (r *Router) Network(id string) *sdn.Network {
	s, err := r.shard(id)
	if err != nil {
		return nil
	}
	return s.nw
}

// AdoptSessions re-pins every session currently live on shard id to
// it in the session-owner map — the boot-recovery hook: after each
// shard's write-ahead log has been replayed into its engine
// (wal.Log.Recover), the router's request→shard ownership is rebuilt
// from the recovered live tables, so Release keeps finding sessions
// admitted before the crash. Returns how many sessions were adopted.
// Request IDs must be unique across shards (the admission-time
// invariant); a duplicate across two adopted shards is an error.
func (r *Router) AdoptSessions(id string) (int, error) {
	s, err := r.shard(id)
	if err != nil {
		return 0, err
	}
	lives := s.eng.Lives()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sol := range lives {
		if prev, taken := r.owner[sol.Request.ID]; taken && prev != id {
			return 0, fmt.Errorf("shard: request %d recovered live on both %s and %s",
				sol.Request.ID, prev, id)
		}
	}
	for _, sol := range lives {
		r.owner[sol.Request.ID] = id
	}
	return len(lives), nil
}

// ShardIDs returns every shard ID ascending, whatever its state.
func (r *Router) ShardIDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// ShardState reports a shard's lifecycle position.
func (r *Router) ShardState(id string) (State, error) {
	s, err := r.shard(id)
	if err != nil {
		return Stopped, err
	}
	return s.stateLocked(), nil
}

// Drain moves a shard out of the admission rotation: its tenants
// re-home to the remaining active shards on their next admission,
// while its live sessions stay put and still depart through Release.
func (r *Router) Drain(id string) error {
	return r.transition(id, Draining, func(cur State) error {
		if cur == Stopped {
			return fmt.Errorf("%w: %s", ErrShardStopped, id)
		}
		return nil
	})
}

// Activate returns a draining shard to the admission rotation, undoing
// Drain (tenants re-home back on their next admission).
func (r *Router) Activate(id string) error {
	return r.transition(id, Active, func(cur State) error {
		if cur == Stopped {
			return fmt.Errorf("%w: %s", ErrShardStopped, id)
		}
		return nil
	})
}

// Stop closes a drained shard's engine. It refuses while live sessions
// remain (drain first, wait for departures or shed via recovery);
// Close force-stops everything instead.
func (r *Router) Stop(id string) error {
	s, err := r.shard(id)
	if err != nil {
		return err
	}
	if s.stateLocked() == Stopped {
		return nil
	}
	if lives := s.eng.LiveCount(); lives > 0 {
		return fmt.Errorf("%w: %s holds %d", ErrNotDrained, id, lives)
	}
	if err := r.transition(id, Stopped, func(State) error { return nil }); err != nil {
		return err
	}
	s.eng.Close()
	return nil
}

// transition applies a guarded state change.
func (r *Router) transition(id string, to State, guard func(cur State) error) error {
	s, err := r.shard(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := guard(s.state); err != nil {
		return err
	}
	s.state = to
	return nil
}

// Close stops every shard's engine, live sessions or not. Idempotent.
func (r *Router) Close() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, id := range r.order {
		s := r.shards[id]
		s.mu.Lock()
		stopped := s.state == Stopped
		s.state = Stopped
		s.mu.Unlock()
		if !stopped {
			s.eng.Close()
		}
	}
}
