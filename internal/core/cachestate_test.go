package core

// Cache-state independence. A long-lived planner plans most requests on
// cached or rebuilt work graphs, and builds cold trees by
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
// one adjacency at once, two goroutines per clone, all sharing the
// adjacency's seed table: reuses read seeds the other goroutines
// publish. Every tree must be the one a fresh Dijkstra builds.
func TestSeedTableConcurrentReuse(t *testing.T) {
	base := testNetwork(t, 60, 41).Graph()
	n := base.NumNodes()
	rng := rand.New(rand.NewSource(3))
	caches := make([]*spCache, 4)
	for i := range caches {
		g := base.WeightClone()
		for e := 0; e < g.NumEdges(); e++ {
			if err := g.SetWeight(e, base.Weight(e)*(1+0.05*rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		caches[i] = newSPCache(g)
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
	var ws graph.DijkstraWorkspace
	seeds := make(map[graph.NodeID]*graph.ShortestPaths)
	for _, v := range []graph.NodeID{0, 4, 5} {
		sp, _, _, err := ws.SeededTree(g, v, false)
		if err != nil {
			t.Fatal(err)
		}
		seeds[v] = sp
	}
	c := newSPCache(g)
	if _, reused, err := c.build(0, &ws); err != nil || reused {
		t.Fatalf("build from a tied seed = reused %v, %v; want a refusal", reused, err)
	}
	ok, err := ws.ReuseInto(g, seeds[4], new(graph.ShortestPaths))
	if err != nil || !ok {
		t.Fatalf("ReuseInto on a unique tree = %v, %v; want certified", ok, err)
	}
	c.noteReuse(ok)
	if !c.noReuse.Load() {
		t.Fatal("a certified reuse recorded after a refusal cleared noReuse")
	}
	if _, reused, err := c.build(5, &ws); err != nil || reused {
		t.Fatalf("build after a refusal = reused %v, %v; want Dijkstra", reused, err)
	}
	if c.skipped.Load() != 1 {
		t.Fatalf("%d seeded roots skipped after a refusal, want 1", c.skipped.Load())
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

// treeTally sums the tree outcomes of Appro_Multi solves through
// Options.onTrees.
type treeTally struct {
	builds, reuses, abandoned uint64
}

func (tt *treeTally) observe(c *spCache) {
	b, r := c.treeCounts()
	tt.builds += b
	tt.reuses += r
	tt.abandoned += c.abandoned.Load()
}

// approMultiStream is one Appro_Multi seed-state case: the network the
// warm run solves on, the stream, and the options.
type approMultiStream struct {
	nw   *sdn.Network
	reqs []*multicast.Request
	opts Options
}

// TestApproMultiIndependentOfSeedState solves one seeded request stream
// with Appro_Multi twice: every request on one network, whose graph
// keeps each solve's trees as the next solve's seeds, and every request
// on a fresh Clone of that network, which starts without seeds. Servers,
// hops, cost bits and error texts must match. The cases: continuous
// prices on Waxman-150, where the warm run must certify reuses; the
// equal prices of GÉANT, where every reuse meets a tie and refuses;
// Appro_Multi_Cap on a loaded Waxman-150, where the requests whose view
// drops links price them at +Inf and still reuse the shared seeds; and
// a warmed network that CloneInto then overwrites with a different
// topology of the same size, whose stale seeds must never reach
// ReuseInto. No cold solve may
// certify a reuse; where no view drops a link and no reuse meets a
// tie, the warm run builds each root's first tree by Dijkstra and
// every later one by reuse.
func TestApproMultiIndependentOfSeedState(t *testing.T) {
	stream := func(nw *sdn.Network, seed int64, n int) []*multicast.Request {
		gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.DefaultGeneratorConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := gen.Batch(n)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	for _, tc := range []struct {
		name   string
		setup  func(t *testing.T) approMultiStream
		reused bool // the warm run must certify reuses; false: it must certify none
		once   bool // the warm run builds no root twice by Dijkstra
	}{
		{
			name: "waxman150",
			setup: func(t *testing.T) approMultiStream {
				nw := testNetwork(t, 150, 7)
				return approMultiStream{nw, stream(nw, 7, 40), DefaultOptions()}
			},
			reused: true,
			once:   true,
		},
		{
			name: "geant-ties",
			setup: func(t *testing.T) approMultiStream {
				nw := tieNetwork(t, "geant")
				return approMultiStream{nw, tieRequests(t, nw, 31, 40), DefaultOptions()}
			},
		},
		{
			name: "cap-filtered",
			setup: func(t *testing.T) approMultiStream {
				nw := testNetwork(t, 150, 7)
				// Leave every fourth link 120 Mbps: a request asking for
				// more drops those links from its view.
				for e := 0; e < nw.NumEdges(); e += 4 {
					a := sdn.Allocation{Links: []sdn.LinkShare{{Edge: e, Mbps: nw.ResidualBandwidth(e) - 120}}}
					if err := nw.Allocate(a); err != nil {
						t.Fatal(err)
					}
				}
				opts := DefaultOptions()
				opts.Capacitated = true
				s := approMultiStream{nw, stream(nw, 7, 40), opts}
				filtered := 0
				for _, req := range s.reqs {
					w := buildWorkGraph(nw.Graph().Clone(), nw, req, true, func(graph.EdgeID) float64 { return 1 })
					if len(outsideLinks(w)) > 0 {
						filtered++
					}
				}
				if filtered == 0 || filtered == len(s.reqs) {
					t.Fatalf("%d of %d requests drop links: the stream must mix both views", filtered, len(s.reqs))
				}
				return s
			},
			reused: true,
		},
		{
			name: "copyinto-other-topology",
			setup: func(t *testing.T) approMultiStream {
				nw := testNetwork(t, 150, 7)
				for _, req := range stream(nw, 7, 10) {
					if _, err := ApproMulti(nw, req, DefaultOptions()); err != nil {
						t.Fatal(err)
					}
				}
				other := testNetwork(t, 150, 8)
				if other.NumEdges() == nw.NumEdges() {
					t.Fatal("the other topology must differ in structure")
				}
				other.CloneInto(nw)
				return approMultiStream{nw, stream(nw, 11, 20), DefaultOptions()}
			},
			reused: true,
			once:   true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.setup(t)
			var warm, cold treeTally
			warmOpts, coldOpts := s.opts, s.opts
			warmOpts.onTrees, coldOpts.onTrees = warm.observe, cold.observe
			solved := 0
			for _, req := range s.reqs {
				solWarm, errWarm := ApproMulti(s.nw, req, warmOpts)
				solCold, errCold := ApproMulti(s.nw.Clone(), req, coldOpts)
				if (errWarm == nil) != (errCold == nil) ||
					errWarm != nil && errWarm.Error() != errCold.Error() {
					t.Fatalf("request %d: warm network: %v; fresh clone: %v", req.ID, errWarm, errCold)
				}
				if errWarm != nil {
					continue
				}
				hWarm, hCold := sha256.New(), sha256.New()
				putSolution(hWarm, solWarm)
				putSolution(hCold, solCold)
				if string(hWarm.Sum(nil)) != string(hCold.Sum(nil)) {
					t.Fatalf("request %d: warm network chose servers %v cost %v, fresh clone %v cost %v",
						req.ID, solWarm.Servers, solWarm.OperationalCost, solCold.Servers, solCold.OperationalCost)
				}
				solved++
			}
			t.Logf("warm: %d trees by Dijkstra, %d by reuse, %d abandoned; cold: %d by Dijkstra",
				warm.builds, warm.reuses, warm.abandoned, cold.builds)
			if solved < len(s.reqs)/2 {
				t.Fatalf("%d of %d solved: the stream compares too few decisions", solved, len(s.reqs))
			}
			if cold.reuses != 0 {
				t.Errorf("fresh clones certified %d reuses: a clone must start without seeds", cold.reuses)
			}
			if tc.reused && warm.reuses == 0 {
				t.Errorf("continuous prices: no tree reused, %d built by Dijkstra", warm.builds)
			}
			if tc.once && (warm.builds > uint64(s.nw.NumNodes()) || warm.abandoned != 0) {
				t.Errorf("%d trees built by Dijkstra on %d nodes, %d reuses abandoned; want only each root's first",
					warm.builds, s.nw.NumNodes(), warm.abandoned)
			}
			if !tc.reused && (warm.reuses != 0 || warm.abandoned == 0) {
				t.Errorf("equal prices: %d trees reused, %d attempts abandoned; want every tie to refuse", warm.reuses, warm.abandoned)
			}
		})
	}
}

// TestApproMultiConcurrentSolvesShareSeeds runs Appro_Multi from four
// goroutines at once on one network, each through the stream in its
// own order, so solves read and publish the seeds of one table
// concurrently. Every solution must match the one a fresh clone gives.
func TestApproMultiConcurrentSolvesShareSeeds(t *testing.T) {
	nw := testNetwork(t, 60, 5)
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.DefaultGeneratorConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.Batch(12)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(sol *Solution, err error) string {
		if err != nil {
			return err.Error()
		}
		h := sha256.New()
		putSolution(h, sol)
		return string(h.Sum(nil))
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		want[i] = digest(ApproMulti(nw.Clone(), req, DefaultOptions()))
	}
	const solvers = 4
	var wg sync.WaitGroup
	for w := 0; w < solvers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + 5*w) % len(reqs)
				if got := digest(ApproMulti(nw, reqs[i], DefaultOptions())); got != want[i] {
					t.Errorf("solver %d, request %d: the solution differs from a fresh clone's", w, reqs[i].ID)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
