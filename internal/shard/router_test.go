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

// TestRouterReleaseFindsSessionAfterRebalance: Release finds the
// session through the owner map, departs it on the admitting shard and
// forgets it.
func TestRouterReleaseFindsSessionAfterRebalance(t *testing.T) {
	r := testRouter(t, []string{"s0", "s1"})
	req := testRequests(t, 1, 9)[0]
	const tenant = "alpha"

	home, _ := r.ShardFor(tenant)
	if _, err := r.Admit(tenant, req); err != nil {
		t.Fatalf("admit: %v", err)
	}
	sol, err := r.Release(req.ID)
	if err != nil {
		t.Fatalf("Release: %v", err)
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

// networkSignature summarises a shard network's observable state:
// versions plus residual sums. Equal versions name equal states, so a
// signature that did not move means the state did not move either: a
// mutation changes the versions, unless a release undid the allocation
// before it and returned both versions and residuals.
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
	before := map[string]uint64{}
	for _, id := range []string{"s0", "s1", "s2"} {
		before[id] = r.Network(id).StructureVersion()
	}
	if err := r.ApplyAll(engine.Mutation{Kind: engine.LinkState, ID: 3, Up: false}); err != nil {
		t.Fatalf("ApplyAll: %v", err)
	}
	for _, id := range []string{"s0", "s1", "s2"} {
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
// and pins to unknown shards fail loudly instead of silently falling
// back.
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

	reqs := testRequests(t, 1, 909)
	if _, err := r.Admit("pinned-a", reqs[0]); err != nil {
		t.Fatalf("Admit to pinned shard: %v", err)
	}
	if got := r.Owner(reqs[0].ID); got != "s2" {
		t.Fatalf("pinned admission owned by %s, want s2", got)
	}
}

// TestRouterAfterClose: Close is idempotent, every operation after it
// answers the engines' typed engine.ErrClosed without touching the
// books, and Report still lists every shard.
func TestRouterAfterClose(t *testing.T) {
	r := testRouter(t, []string{"s0", "s1"})
	reqs := testRequests(t, 2, 31)
	if _, err := r.Admit("alpha", reqs[0]); err != nil {
		t.Fatal(err)
	}
	home := r.Owner(reqs[0].ID)
	before := r.Report()
	r.Close()
	r.Close()

	if _, err := r.Admit("alpha", reqs[1]); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Admit after Close: %v, want engine.ErrClosed", err)
	}
	if _, err := r.Release(reqs[0].ID); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Release after Close: %v, want engine.ErrClosed", err)
	}
	if owner := r.Owner(reqs[0].ID); owner != home {
		t.Fatalf("owner after refused Release = %q, want %q", owner, home)
	}
	mut := engine.Mutation{Kind: engine.LinkState, ID: 0, Up: false}
	if err := r.ApplyShard(home, mut); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("ApplyShard after Close: %v, want engine.ErrClosed", err)
	}
	if err := r.ApplyAll(mut); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("ApplyAll after Close: %v, want engine.ErrClosed", err)
	}

	after := r.Report()
	if len(after.Shards) != 2 || after.Shards[0].ID != "s0" || after.Shards[1].ID != "s1" {
		t.Fatalf("report after Close lists %+v, want s0 and s1", after.Shards)
	}
	if after.Merged != before.Merged || after.Admitted != 1 || after.Rejected != 0 || after.Live != 1 {
		t.Fatalf("report after Close %+v, want the pre-Close books %+v", after, before)
	}
}
