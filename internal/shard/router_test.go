package shard_test

import (
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/shard"
	"nfvmcast/internal/topology"
)

// geantBuilder gives every shard its own GÉANT replica with capacities
// seeded from the shard ID, so shard substrates are deterministic per
// ID and independent of shard count.
func geantBuilder() shard.Builder {
	return func(id string) (*sdn.Network, core.Planner, error) {
		h := fnv.New64a()
		h.Write([]byte(id))
		seed := int64(h.Sum64() % (1 << 32))
		nw, err := sdn.NewNetwork(topology.GEANT(), sdn.DefaultConfig(),
			rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, nil, err
		}
		p, err := core.NewCPPlanner(core.DefaultCostModel(nw.NumNodes()))
		return nw, p, err
	}
}

func testRouter(t *testing.T, shards []string, opts ...func(*shard.Options)) *shard.Router {
	t.Helper()
	o := shard.Options{Shards: shards, Build: geantBuilder()}
	for _, fn := range opts {
		fn(&o)
	}
	r, err := shard.New(o)
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

// testRequests draws count deterministic requests over GÉANT with
// globally unique IDs.
func testRequests(t *testing.T, count int, seed int64) []*multicast.Request {
	t.Helper()
	n := topology.GEANT().Graph.NumNodes()
	gen, err := multicast.NewGenerator(n, multicast.OnlineGeneratorConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.Batch(count)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestRouterValidation(t *testing.T) {
	if _, err := shard.New(shard.Options{Build: geantBuilder()}); err == nil {
		t.Fatal("no shards accepted")
	}
	if _, err := shard.New(shard.Options{Shards: []string{"a"}}); err == nil {
		t.Fatal("nil builder accepted")
	}
	if _, err := shard.New(shard.Options{Shards: []string{"a", "a"}, Build: geantBuilder()}); err == nil {
		t.Fatal("duplicate shard ID accepted")
	}
	if _, err := shard.New(shard.Options{Shards: []string{""}, Build: geantBuilder()}); err == nil {
		t.Fatal("empty shard ID accepted")
	}
}

func TestRouterRoutesByTenantConsistently(t *testing.T) {
	r := testRouter(t, []string{"s0", "s1", "s2", "s3"})
	tenants := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}

	homes := make(map[string]string)
	spread := make(map[string]bool)
	for _, tn := range tenants {
		id, err := r.ShardFor(tn)
		if err != nil {
			t.Fatalf("ShardFor(%s): %v", tn, err)
		}
		homes[tn] = id
		spread[id] = true
		// Stable across calls.
		for i := 0; i < 3; i++ {
			again, _ := r.ShardFor(tn)
			if again != id {
				t.Fatalf("ShardFor(%s) flapped %s -> %s", tn, id, again)
			}
		}
	}
	if len(spread) < 2 {
		t.Fatalf("6 tenants all routed to one shard; rendezvous spread broken: %v", homes)
	}

	// Admissions land on the reported home shard.
	reqs := testRequests(t, len(tenants), 5)
	for i, tn := range tenants {
		if _, err := r.Admit(tn, reqs[i]); err != nil {
			t.Fatalf("admit %s: %v", tn, err)
		}
		if owner := r.Owner(reqs[i].ID); owner != homes[tn] {
			t.Fatalf("request %d owned by %s, tenant %s homes on %s",
				reqs[i].ID, owner, tn, homes[tn])
		}
	}
	rep := r.Report()
	if rep.Admitted != len(tenants) || rep.Live != len(tenants) {
		t.Fatalf("report admitted=%d live=%d, want %d/%d",
			rep.Admitted, rep.Live, len(tenants), len(tenants))
	}
}

func TestRouterDrainRehomesOnlyDrainedTenants(t *testing.T) {
	r := testRouter(t, []string{"s0", "s1", "s2", "s3"})
	tenants := []string{"alpha", "bravo", "charlie", "delta", "echo",
		"foxtrot", "golf", "hotel", "india", "juliet"}
	before := make(map[string]string)
	for _, tn := range tenants {
		before[tn], _ = r.ShardFor(tn)
	}

	// Pick a shard that homes at least one tenant and drain it.
	drained := before[tenants[0]]
	if err := r.Drain(drained); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, tn := range tenants {
		after, err := r.ShardFor(tn)
		if err != nil {
			t.Fatalf("ShardFor(%s): %v", tn, err)
		}
		if before[tn] == drained {
			if after == drained {
				t.Fatalf("tenant %s still routes to drained shard %s", tn, drained)
			}
		} else if after != before[tn] {
			t.Fatalf("tenant %s re-homed %s -> %s though its shard was not drained (rendezvous must move only the drained shard's tenants)",
				tn, before[tn], after)
		}
	}

	// Reactivation restores the original homes exactly.
	if err := r.Activate(drained); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	for _, tn := range tenants {
		if after, _ := r.ShardFor(tn); after != before[tn] {
			t.Fatalf("tenant %s home %s != original %s after reactivation", tn, after, before[tn])
		}
	}
}

func TestRouterReleaseFindsSessionAfterRebalance(t *testing.T) {
	r := testRouter(t, []string{"s0", "s1"})
	req := testRequests(t, 1, 9)[0]
	const tenant = "alpha"

	home, _ := r.ShardFor(tenant)
	if _, err := r.Admit(tenant, req); err != nil {
		t.Fatalf("admit: %v", err)
	}
	// Re-home the tenant, then release: the depart must land on the
	// admitting shard, not the tenant's new home.
	if err := r.Drain(home); err != nil {
		t.Fatal(err)
	}
	newHome, _ := r.ShardFor(tenant)
	if newHome == home {
		t.Fatalf("tenant still homes on drained shard")
	}
	sol, err := r.Release(req.ID)
	if err != nil {
		t.Fatalf("Release after rebalance: %v", err)
	}
	if sol == nil {
		t.Fatal("Release returned no solution")
	}
	if eng := r.Engine(home); eng.LiveCount() != 0 {
		t.Fatalf("admitting shard still holds %d sessions", eng.LiveCount())
	}
	if _, err := r.Release(req.ID); !errors.Is(err, shard.ErrUnknownSession) {
		t.Fatalf("double release: %v, want ErrUnknownSession", err)
	}
}

// TestRouterReleaseOfShedSession: once recovery has shed a session its
// engine no longer holds it, so Release must answer ErrUnknownSession
// (the daemon's 404) rather than pass the engine's error through, and
// must drop the session's owner entry instead of keeping it forever.
func TestRouterReleaseOfShedSession(t *testing.T) {
	pol := recov.DefaultPolicy()
	r := testRouter(t, []string{"s0", "s1"}, func(o *shard.Options) { o.Recovery = &pol })
	req := testRequests(t, 1, 9)[0]
	if _, err := r.Admit("alpha", req); err != nil {
		t.Fatalf("admit: %v", err)
	}
	home := r.Owner(req.ID)
	var down []engine.Mutation
	for _, v := range r.Network(home).Servers() {
		down = append(down, engine.Mutation{Kind: engine.ServerState, ID: v, Up: false})
	}
	if err := r.ApplyShard(home, down...); err != nil {
		t.Fatalf("fail every server: %v", err)
	}
	if rep := r.Engine(home).LastRecovery(); rep == nil || rep.Shed != 1 {
		t.Fatalf("recovery report %+v, want the one session shed", rep)
	}
	if _, err := r.Release(req.ID); !errors.Is(err, shard.ErrUnknownSession) {
		t.Fatalf("release of shed session: %v, want ErrUnknownSession", err)
	}
	if owner := r.Owner(req.ID); owner != "" {
		t.Fatalf("shed session still owned by %q after release", owner)
	}
}

// TestRouterDropsOwnersOfShedSessions: the sessions a recovery pass
// sheds lose their owner entries with the Apply that shed them, not on
// a Release that may never come, so the owner map only ever holds live
// sessions.
func TestRouterDropsOwnersOfShedSessions(t *testing.T) {
	pol := recov.DefaultPolicy()
	r := testRouter(t, []string{"s0", "s1"}, func(o *shard.Options) { o.Recovery = &pol })
	reqs := testRequests(t, 40, 17)
	for i, req := range reqs {
		if _, err := r.Admit([]string{"alpha", "beta", "gamma"}[i%3], req); err != nil && !core.IsRejection(err) {
			t.Fatal(err)
		}
	}
	home := r.Owner(reqs[0].ID)
	var down []engine.Mutation
	for _, v := range r.Network(home).Servers() {
		down = append(down, engine.Mutation{Kind: engine.ServerState, ID: v, Up: false})
	}
	if err := r.ApplyShard(home, down...); err != nil {
		t.Fatalf("fail every server: %v", err)
	}
	rep := r.Engine(home).LastRecovery()
	if rep == nil || rep.Shed < 2 {
		t.Fatalf("recovery report %+v, want several sessions shed", rep)
	}
	for _, o := range rep.Outcomes {
		if owner := r.Owner(o.RequestID); o.Mode == recov.ModeShed && owner != "" {
			t.Fatalf("shed session %d still owned by %q", o.RequestID, owner)
		}
	}
	owned := 0
	for _, req := range reqs {
		if r.Owner(req.ID) != "" {
			owned++
		}
	}
	if live := r.Report().Live; owned != live || live == 0 {
		t.Fatalf("%d sessions owned, %d live across shards", owned, live)
	}
}

func TestRouterLifecycle(t *testing.T) {
	r := testRouter(t, []string{"s0", "s1"})
	req := testRequests(t, 1, 3)[0]
	const tenant = "alpha"
	home, _ := r.ShardFor(tenant)
	if _, err := r.Admit(tenant, req); err != nil {
		t.Fatal(err)
	}

	// Stop refuses while sessions are live.
	if err := r.Stop(home); !errors.Is(err, shard.ErrNotDrained) {
		t.Fatalf("Stop with live sessions: %v, want ErrNotDrained", err)
	}
	if _, err := r.Release(req.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.Stop(home); err != nil {
		t.Fatalf("Stop after drain: %v", err)
	}
	if st, _ := r.ShardState(home); st != shard.Stopped {
		t.Fatalf("state = %v, want stopped", st)
	}
	// Idempotent; transitions out of stopped are refused.
	if err := r.Stop(home); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	if err := r.Activate(home); !errors.Is(err, shard.ErrShardStopped) {
		t.Fatalf("Activate stopped shard: %v, want ErrShardStopped", err)
	}

	// Admissions route around the stopped shard.
	req2 := testRequests(t, 2, 4)[1]
	if _, err := r.Admit(tenant, req2); err != nil {
		t.Fatalf("admit after stop: %v", err)
	}
	if owner := r.Owner(req2.ID); owner == home {
		t.Fatalf("admission routed to stopped shard %s", home)
	}

	// Draining everything leaves nowhere to admit.
	for _, id := range r.ShardIDs() {
		if st, _ := r.ShardState(id); st == shard.Active {
			if err := r.Drain(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	req3 := testRequests(t, 3, 4)[2]
	if _, err := r.Admit(tenant, req3); !errors.Is(err, shard.ErrNoActiveShards) {
		t.Fatalf("admit with all shards drained: %v, want ErrNoActiveShards", err)
	}
	if _, err := r.ShardFor(tenant); !errors.Is(err, shard.ErrNoActiveShards) {
		t.Fatalf("ShardFor with all shards drained: %v, want ErrNoActiveShards", err)
	}
}

// networkSignature summarises a shard network's observable state:
// versions plus residual sums — enough that any mutation moves it.
func networkSignature(nw *sdn.Network) [4]float64 {
	var linkSum, srvSum float64
	for e := 0; e < nw.NumEdges(); e++ {
		linkSum += nw.ResidualBandwidth(e)
	}
	for _, v := range nw.Servers() {
		srvSum += nw.ResidualCompute(v)
	}
	return [4]float64{float64(nw.MutationVersion()), float64(nw.StructureVersion()), linkSum, srvSum}
}

// TestRouterCrossShardIsolation pins the tenant-isolation contract the
// fuzz corpus seeds cross-shard batches for: a malformed Apply batch
// routed to tenant A's shard must leave tenant B's shard bit-identical
// — no version bump, no residual drift.
func TestRouterCrossShardIsolation(t *testing.T) {
	r := testRouter(t, []string{"s0", "s1", "s2", "s3"})

	// Find two tenants on different shards.
	tenA, tenB := "alpha", ""
	homeA, _ := r.ShardFor(tenA)
	for _, tn := range []string{"bravo", "charlie", "delta", "echo", "foxtrot"} {
		if h, _ := r.ShardFor(tn); h != homeA {
			tenB, _ = tn, h
			break
		}
	}
	if tenB == "" {
		t.Fatal("all probe tenants routed to one shard")
	}
	homeB, _ := r.ShardFor(tenB)

	// Give B a live session so its state is non-trivial.
	req := testRequests(t, 1, 21)[0]
	if _, err := r.Admit(tenB, req); err != nil {
		t.Fatal(err)
	}
	sigB := networkSignature(r.Network(homeB))

	// A malformed batch for tenant A: second mutation is invalid, so
	// the whole batch must be rejected atomically...
	err := r.Apply(tenA,
		engine.Mutation{Kind: engine.LinkState, ID: 0, Up: false},
		engine.Mutation{Kind: engine.LinkCapacity, ID: 1, Capacity: math.NaN()},
	)
	var malformed *engine.MalformedMutationError
	if !errors.As(err, &malformed) {
		t.Fatalf("malformed batch: %v, want MalformedMutationError", err)
	}
	// ...leaving A unchanged too, but the isolation claim is about B.
	if got := networkSignature(r.Network(homeB)); got != sigB {
		t.Fatalf("tenant B's shard %s drifted under tenant A's malformed batch: %v -> %v",
			homeB, sigB, got)
	}

	// A well-formed batch for A touches only A's shard.
	if err := r.Apply(tenA, engine.Mutation{Kind: engine.LinkState, ID: 0, Up: false}); err != nil {
		t.Fatalf("valid batch: %v", err)
	}
	if got := networkSignature(r.Network(homeB)); got != sigB {
		t.Fatalf("tenant B's shard %s drifted under tenant A's valid batch", homeB)
	}
	if r.Network(homeA).LinkUp(0) {
		t.Fatal("tenant A's mutation did not apply")
	}
}

func TestRouterApplyAll(t *testing.T) {
	r := testRouter(t, []string{"s0", "s1", "s2"})
	if err := r.Stop("s2"); err != nil {
		t.Fatal(err)
	}
	before := map[string]uint64{}
	for _, id := range []string{"s0", "s1"} {
		before[id] = r.Network(id).StructureVersion()
	}
	if err := r.ApplyAll(engine.Mutation{Kind: engine.LinkState, ID: 3, Up: false}); err != nil {
		t.Fatalf("ApplyAll: %v", err)
	}
	for _, id := range []string{"s0", "s1"} {
		if got := r.Network(id).StructureVersion(); got != before[id]+1 {
			t.Fatalf("shard %s structure version %d, want %d", id, got, before[id]+1)
		}
		if r.Network(id).LinkUp(3) {
			t.Fatalf("shard %s link 3 still up", id)
		}
	}
}

func TestRouterUnknownTargets(t *testing.T) {
	r := testRouter(t, []string{"s0"})
	if _, err := r.Release(404); !errors.Is(err, shard.ErrUnknownSession) {
		t.Fatalf("Release(404): %v", err)
	}
	if err := r.Drain("nope"); !errors.Is(err, shard.ErrUnknownShard) {
		t.Fatalf("Drain(nope): %v", err)
	}
	if err := r.ApplyShard("nope"); !errors.Is(err, shard.ErrUnknownShard) {
		t.Fatalf("ApplyShard(nope): %v", err)
	}
	if r.Engine("nope") != nil || r.Network("nope") != nil {
		t.Fatal("accessors returned non-nil for unknown shard")
	}
}

// TestRouterAssignOverride pins the Assign placement hook: assigned
// tenants route to their pinned shard regardless of the rendezvous
// hash, unassigned tenants ("" from the hook) fall back to rendezvous,
// and pins to unknown or non-active shards fail loudly instead of
// silently re-homing.
func TestRouterAssignOverride(t *testing.T) {
	shards := []string{"s0", "s1", "s2"}
	pins := map[string]string{
		"pinned-a": "s2",
		"pinned-b": "s0",
		"bogus":    "nope",
	}
	r := testRouter(t, shards, func(o *shard.Options) {
		o.Assign = func(tenant string) string { return pins[tenant] }
	})

	for tenant, want := range map[string]string{"pinned-a": "s2", "pinned-b": "s0"} {
		got, err := r.ShardFor(tenant)
		if err != nil {
			t.Fatalf("ShardFor(%s): %v", tenant, err)
		}
		if got != want {
			t.Fatalf("ShardFor(%s) = %s, want pinned %s", tenant, got, want)
		}
	}

	// Unpinned tenants agree with a pure-rendezvous router.
	plain := testRouter(t, shards)
	for _, tenant := range []string{"free-1", "free-2", "free-3"} {
		got, err := r.ShardFor(tenant)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.ShardFor(tenant)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("unpinned tenant %s routed to %s, rendezvous says %s", tenant, got, want)
		}
	}

	// A pin to an unconfigured shard is an error, not a fallback.
	if _, err := r.ShardFor("bogus"); !errors.Is(err, shard.ErrUnknownShard) {
		t.Fatalf("pin to unknown shard: err = %v, want ErrUnknownShard", err)
	}

	// Draining the pinned shard refuses the tenant instead of re-homing.
	if err := r.Drain("s2"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ShardFor("pinned-a"); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("pin to draining shard: err = %v, want ErrShardUnavailable", err)
	}
	reqs := testRequests(t, 1, 909)
	if _, err := r.Admit("pinned-a", reqs[0]); !errors.Is(err, shard.ErrShardUnavailable) {
		t.Fatalf("Admit to draining pinned shard: err = %v, want ErrShardUnavailable", err)
	}
	if err := r.Activate("s2"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Admit("pinned-a", reqs[0]); err != nil {
		t.Fatalf("Admit after reactivating pinned shard: %v", err)
	}
	if got := r.Owner(reqs[0].ID); got != "s2" {
		t.Fatalf("pinned admission owned by %s, want s2", got)
	}
}
