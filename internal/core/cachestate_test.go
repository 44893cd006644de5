package core

// Cache-state independence. A long-lived planner plans most requests on
// cached, patched or templated work graphs, and builds cold trees by
// reusing the last tree from each root (graph.ReuseInto); a planner
// made fresh for every request builds everything from scratch. Their
// decisions must not differ in a single bit.

import (
	"context"
	"crypto/sha256"
	"math"
	"math/rand"
	"sync"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// freshPlanner plans every request with the planner cur, which the
// test replaces before each request, so no cache survives between
// requests. It forwards FastReject so both sides take the same path.
type freshPlanner struct{ cur Planner }

func (f *freshPlanner) Name() string { return f.cur.Name() }

func (f *freshPlanner) Plan(
	ctx context.Context, nw *sdn.Network, req *multicast.Request, arena *PlanArena,
) (*Solution, error) {
	return f.cur.Plan(ctx, nw, req, arena)
}

func (f *freshPlanner) FastReject(view *sdn.Network, req *multicast.Request) error {
	if fr, ok := f.cur.(FastRejecter); ok {
		return fr.FastReject(view, req)
	}
	return nil
}

// treeCounts reports how many trees c built by Dijkstra and by a
// certified reuse.
func (c *spCache) treeCounts() (builds, reuses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds, c.reuses
}

// treeTotals sums the Dijkstra builds and certified reuses of every
// distinct shortest-path cache c holds.
func (c *workGraphCache) treeTotals() (builds, reuses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[*spCache]bool)
	for n := c.mru; n != nil; n = n.older {
		if !seen[n.sp] {
			seen[n.sp] = true
			b, r := n.sp.treeCounts()
			builds += b
			reuses += r
		}
	}
	return builds, reuses
}

// TestSeedTableConcurrentReuse builds trees on four weight clones of
// one adjacency at once, two goroutines per clone, all sharing one seed
// table: reuses read seeds the other goroutines publish. Every tree
// must be the one a fresh Dijkstra builds.
func TestSeedTableConcurrentReuse(t *testing.T) {
	base := testNetwork(t, 60, 41).Graph()
	n := base.NumNodes()
	seeds := make(spSeeds, n)
	rng := rand.New(rand.NewSource(3))
	caches := make([]*spCache, 4)
	for i := range caches {
		g := base.WeightClone()
		for e := 0; e < g.NumEdges(); e++ {
			if err := g.SetWeight(e, base.Weight(e)*(1+0.05*rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		caches[i] = newSPCache(g, seeds)
	}
	var wg sync.WaitGroup
	for _, c := range caches {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(c *spCache, w int) {
				defer wg.Done()
				var ws graph.DijkstraWorkspace
				for v := 0; v < n; v++ {
					root := graph.NodeID((v + 17*w) % n)
					sp, err := c.fromWith(root, &ws)
					if err != nil {
						t.Error(err)
						return
					}
					want, err := graph.Dijkstra(c.g, root)
					if err != nil {
						t.Error(err)
						return
					}
					for u := 0; u < n; u++ {
						if math.Float64bits(sp.Dist[u]) != math.Float64bits(want.Dist[u]) ||
							sp.Parent(u) != want.Parent(u) || sp.Depth(u) != want.Depth(u) {
							t.Errorf("root %d, node %d: got (%v, %d, %d), want (%v, %d, %d)", root, u,
								sp.Dist[u], sp.Parent(u), sp.Depth(u), want.Dist[u], want.Parent(u), want.Depth(u))
							return
						}
					}
				}
			}(c, w)
		}
	}
	wg.Wait()
	var reuses uint64
	for _, c := range caches {
		_, r := c.treeCounts()
		reuses += r
	}
	if reuses == 0 {
		t.Fatal("no tree was reused: the seed table went untested")
	}
}

// TestNoReuseSurvivesLaterCertifiedReuse pins the order in which two
// planners sharing one cache can record their reuses: one refuses and
// sets noReuse, then the other, which read the flag before it was set,
// certifies. The refusal must stand, and the next miss goes straight
// to Dijkstra.
func TestNoReuseSurvivesLaterCertifiedReuse(t *testing.T) {
	// A unit-weight 4-cycle, where every root ties at the opposite node,
	// and a separate edge, whose trees are unique.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	seeds := make(spSeeds, g.NumNodes())
	for _, v := range []graph.NodeID{0, 4, 5} {
		sp, err := graph.Dijkstra(g, v)
		if err != nil {
			t.Fatal(err)
		}
		seeds.store(v, sp)
	}
	c := newSPCache(g, seeds)
	var ws graph.DijkstraWorkspace
	if _, reused, err := c.build(0, seeds.load(0), &ws); err != nil || reused {
		t.Fatalf("build from a tied seed = reused %v, %v; want a refusal", reused, err)
	}
	ok, err := ws.ReuseInto(g, seeds.load(4), new(graph.ShortestPaths))
	if err != nil || !ok {
		t.Fatalf("ReuseInto on a unique tree = %v, %v; want certified", ok, err)
	}
	c.noteReuse(ok)
	if !c.noReuse.Load() {
		t.Fatal("a certified reuse recorded after a refusal cleared noReuse")
	}
	if _, reused, err := c.build(5, seeds.load(5), &ws); err != nil || reused {
		t.Fatalf("build after a refusal = reused %v, %v; want Dijkstra", reused, err)
	}
}

// plannerCache is the work-graph cache of the exponential-cost planners.
func plannerCache(t *testing.T, p Planner) *workGraphCache {
	t.Helper()
	switch p := p.(type) {
	case *CPPlanner:
		return &p.cache
	case *CPKPlanner:
		return &p.cache
	case *DistCPPlanner:
		return &p.cache
	}
	t.Fatalf("planner %s has no work-graph cache", p.Name())
	return nil
}

// TestDecisionsIndependentOfCacheState pushes one seeded admit→depart
// stream through Online_CP, Online_CPK and Dist_CP twice — one
// long-lived planner, and a fresh planner per request — and demands
// identical servers, hops, cost bits and rejection texts, on the
// continuous prices of Waxman-100 and on the equal prices of GÉANT.
// The stream's first half departs every session before the next
// request, so each plan prices an idle network; its second half holds
// up to ten sessions. After the first half the long-lived planner's
// counters must show which path built its cold trees: reuse on
// Waxman-100, and Dijkstra after a tied reuse on GÉANT.
func TestDecisionsIndependentOfCacheState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nw     func() *sdn.Network
		reqs   func(nw *sdn.Network) []*multicast.Request
		reused bool
	}{
		{
			name: "waxman100",
			nw:   func() *sdn.Network { return testNetwork(t, 100, 17) },
			reqs: func(nw *sdn.Network) []*multicast.Request {
				gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), 23)
				if err != nil {
					t.Fatal(err)
				}
				reqs, err := gen.Batch(200)
				if err != nil {
					t.Fatal(err)
				}
				return reqs
			},
			reused: true,
		},
		{
			name:   "geant-ties",
			nw:     func() *sdn.Network { return tieNetwork(t, "geant") },
			reqs:   func(nw *sdn.Network) []*multicast.Request { return tieRequests(t, nw, 31, 200) },
			reused: false,
		},
	} {
		for _, policy := range []string{"Online_CP", "Online_CPK", "Dist_CP"} {
			t.Run(tc.name+"/"+policy, func(t *testing.T) {
				nwLong, nwFresh := tc.nw(), tc.nw()
				newPlanner := func() Planner {
					p, err := NewPlanner(policy, PlannerOptions{Nodes: nwLong.NumNodes(), K: 3})
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				long, fresh := newPlanner(), &freshPlanner{}
				aLong, aFresh := NewAdmitter(nwLong, long), NewAdmitter(nwFresh, fresh)
				reqs := tc.reqs(nwLong)
				var live []int
				admitted := 0
				for i, req := range reqs {
					if i == len(reqs)/2 {
						builds, reuses := plannerCache(t, long).treeTotals()
						t.Logf("idle half: cold trees: %d by Dijkstra, %d by reuse", builds, reuses)
						if tc.reused && reuses <= builds {
							t.Errorf("continuous prices: %d trees reused, %d built by Dijkstra; want mostly reuse", reuses, builds)
						}
						if !tc.reused && (reuses != 0 || builds == 0) {
							t.Errorf("equal prices: %d trees reused, %d built by Dijkstra; want every tie to fall back", reuses, builds)
						}
					}
					fresh.cur = newPlanner()
					solLong, errLong := aLong.Admit(context.Background(), req, nil)
					solFresh, errFresh := aFresh.Admit(context.Background(), req, nil)
					if (errLong == nil) != (errFresh == nil) ||
						errLong != nil && errLong.Error() != errFresh.Error() {
						t.Fatalf("request %d: long-lived planner: %v; fresh planner: %v", req.ID, errLong, errFresh)
					}
					if errLong != nil {
						if !IsRejection(errLong) {
							t.Fatalf("request %d: %v", req.ID, errLong)
						}
						continue
					}
					hLong, hFresh := sha256.New(), sha256.New()
					putSolution(hLong, solLong)
					putSolution(hFresh, solFresh)
					if string(hLong.Sum(nil)) != string(hFresh.Sum(nil)) {
						t.Fatalf("request %d: long-lived planner chose servers %v cost %v, fresh planner %v cost %v",
							req.ID, solLong.Servers, solLong.OperationalCost, solFresh.Servers, solFresh.OperationalCost)
					}
					admitted++
					maxLive := 0
					if i >= len(reqs)/2 {
						maxLive = 10
					}
					for live = append(live, req.ID); len(live) > maxLive; live = live[1:] {
						for _, a := range []*Admitter{aLong, aFresh} {
							if _, err := a.Depart(live[0]); err != nil {
								t.Fatalf("depart %d: %v", live[0], err)
							}
						}
					}
				}
				if admitted < len(reqs)/2 {
					t.Fatalf("%d of %d admitted: the stream compares too few decisions", admitted, len(reqs))
				}
			})
		}
	}
}
