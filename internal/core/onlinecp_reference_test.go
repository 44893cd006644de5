package core

// Reference oracle for Online_CP's candidate evaluation. The planner
// prices candidate servers without a server-rooted Dijkstra (KMB reads
// the server's closure row out of the terminals' trees) and without
// building a losing candidate's pseudo tree (an arena-owned rooted view
// prices the back-tracking path; the winner alone is realised). The
// loop it replaced — one KMB and one full graph.NewRootedTree +
// PseudoTree per candidate — is kept here and every plan is compared
// with it: same server, same hops, bit-equal costs, same rejection
// text.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// planPerCandidateReference is CPPlanner.Plan as it stood before
// this oracle was written, except that its shortest paths and Steiner
// trees are its own: graph.Dijkstra and graph.SteinerKMB on the work
// graph, sharing no cached or reused tree with the planner. The arena
// goes unused.
func (p *CPPlanner) planPerCandidateReference(
	ctx context.Context, nw *sdn.Network, req *multicast.Request, _ *PlanArena,
) (*Solution, error) {
	if err := validateInput(nw, req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	w, _ := p.cache.acquire(nw, req)
	if len(w.servers) == 0 {
		return nil, fmt.Errorf("%w: %w: %0.f MHz demanded",
			ErrRejected, ErrComputeExhausted, req.ComputeDemandMHz())
	}
	spSrc, err := graph.Dijkstra(w.g, req.Source)
	if err != nil {
		return nil, err
	}
	dMax := 0.0
	for _, d := range req.Destinations {
		if dd := spSrc.Dist[d]; dd > dMax {
			dMax = dd
		}
	}

	var (
		bestSelection = graph.Infinity
		bestTree      *multicast.PseudoTree
		bestServer    = graph.NodeID(-1)
	)
	for _, v := range w.servers {
		if cerr := ctx.Err(); cerr != nil {
			return nil, canceled(cerr)
		}
		if p.model.ServerWeight(nw, v) >= p.model.SigmaV {
			continue
		}
		if lower0 := maxf(spSrc.Dist[v], dMax) + p.model.ServerCost(nw, v); lower0 >= bestSelection {
			continue
		}
		terms := append([]graph.NodeID{req.Source, v}, req.Destinations...)
		st, err := graph.SteinerKMB(w.g, terms)
		if err != nil {
			continue
		}
		overloaded := false
		for _, e := range st.EdgeIDs {
			if p.model.LinkWeight(nw, e) >= p.model.SigmaE {
				overloaded = true
				break
			}
		}
		if overloaded {
			continue
		}
		var cT float64
		for _, e := range st.EdgeIDs {
			cT += p.model.LinkCost(nw, e)
		}
		lower := cT + p.model.ServerCost(nw, v)
		if lower >= bestSelection {
			continue
		}
		tree, retCost, err := realizeSingleServerReference(w, req, v, st, func(e graph.EdgeID) float64 {
			return p.model.LinkCost(nw, e)
		})
		if err != nil {
			continue
		}
		sel := lower + retCost
		if sel < bestSelection {
			bestSelection, bestTree, bestServer = sel, tree, v
		}
	}
	if bestTree == nil {
		return nil, fmt.Errorf("%w: %w: no admissible server/tree",
			ErrRejected, ErrThresholdExceeded)
	}
	return &Solution{
		Request:         req,
		Tree:            bestTree,
		Servers:         []graph.NodeID{bestServer},
		OperationalCost: OperationalCost(nw, req, bestTree),
		SelectionCost:   bestSelection,
	}, nil
}

// realizeSingleServerReference is the realizeSingleServer that
// planPerCandidateReference ran for every candidate, over
// graph.RootedTree.
func realizeSingleServerReference(
	w *workGraph, req *multicast.Request, v graph.NodeID, st *graph.SteinerTree,
	linkCost func(e graph.EdgeID) float64,
) (*multicast.PseudoTree, float64, error) {
	rt, err := graph.NewRootedTree(w.g, st.EdgeIDs, req.Source)
	if err != nil {
		return nil, 0, err
	}
	lcaArgs := append([]graph.NodeID{v}, req.Destinations...)
	u, err := rt.LCAAll(lcaArgs...)
	if err != nil {
		return nil, 0, err
	}

	tree := multicast.NewPseudoTree(req.Source, req.Destinations, []graph.NodeID{v})

	nodes, edges, err := rt.PathBetween(req.Source, v)
	if err != nil {
		return nil, 0, err
	}
	if err := tree.AddPath(nodes, edges, false); err != nil {
		return nil, 0, err
	}

	var retCost float64
	nodes, edges, err = rt.PathBetween(v, u)
	if err != nil {
		return nil, 0, err
	}
	if err := tree.AddPath(nodes, edges, true); err != nil {
		return nil, 0, err
	}
	for _, e := range edges {
		retCost += linkCost(e)
	}
	for _, d := range req.Destinations {
		start := u
		if onPath, perr := rt.LCA(v, d); perr == nil && onPath == v {
			start = v
		}
		nodes, edges, err = rt.PathBetween(start, d)
		if err != nil {
			return nil, 0, err
		}
		if err := tree.AddPath(nodes, edges, true); err != nil {
			return nil, 0, err
		}
	}
	return tree, retCost, nil
}

// TestCPPlanMatchesPerCandidateReference plans ≥ 2,000 requests on
// GÉANT and Waxman-100/250 in four network states — idle, a FIFO of 200
// live sessions (each compared plan is committed, the oldest departs),
// heavily drained links and servers, failed links and servers — with the
// production planner and the per-candidate reference side by side.
func TestCPPlanMatchesPerCandidateReference(t *testing.T) {
	nets := []struct {
		name  string
		build func() *sdn.Network
		reqs  int // per state
	}{
		{"geant", func() *sdn.Network { return geantNetwork(t, 4) }, 280},
		{"waxman100", func() *sdn.Network { return testNetwork(t, 100, 42) }, 200},
		{"waxman250", func() *sdn.Network { return testNetwork(t, 250, 17) }, 80},
	}
	states := []string{"idle", "live200", "saturated", "failed"}
	total, admitted, rejected := 0, 0, 0
	for ni, nc := range nets {
		for si, state := range states {
			t.Run(nc.name+"/"+state, func(t *testing.T) {
				nw := nc.build()
				model := DefaultCostModel(nw.NumNodes())
				prod, err := NewCPPlanner(model)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewCPPlanner(model)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(100*ni + si)))
				gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), int64(7+10*ni+si))
				if err != nil {
					t.Fatal(err)
				}
				arena, refArena := NewPlanArena(), NewPlanArena()

				// FIFO of committed plans. As in Admitter.Admit, a
				// plan whose back-tracking traffic crosses one link twice
				// can exceed that link's residual; it is then not committed.
				var live []sdn.Allocation
				commit := func(sol *Solution) {
					a := AllocationFor(sol.Request, sol.Tree)
					if err := nw.Allocate(a); err == nil {
						live = append(live, a)
					}
				}
				n := nc.reqs
				switch state {
				case "live200":
					// Fill to 200 live sessions before comparing.
					for len(live) < 200 {
						req, gerr := gen.Next()
						if gerr != nil {
							t.Fatal(gerr)
						}
						if sol, perr := prod.Plan(context.Background(), nw, req, arena); perr == nil {
							commit(sol)
						} else if !IsRejection(perr) {
							t.Fatal(perr)
						}
					}
				case "saturated":
					// Push 60% of links and half the servers to 85–99.9%
					// utilisation: thresholds (a) and (b) fire, links drop
					// out of the capacitated view, exponential weights span
					// many orders of magnitude.
					var a sdn.Allocation
					for e := 0; e < nw.NumEdges(); e++ {
						if rng.Float64() < 0.6 {
							a.Links = append(a.Links, sdn.LinkShare{Edge: e, Mbps: nw.ResidualBandwidth(e) * (0.85 + 0.149*rng.Float64())})
						}
					}
					for _, v := range nw.Servers() {
						if rng.Float64() < 0.5 {
							a.Servers = append(a.Servers, sdn.ServerShare{Node: v, MHz: nw.ResidualCompute(v) * (0.85 + 0.149*rng.Float64())})
						}
					}
					if err := nw.Allocate(a); err != nil {
						t.Fatal(err)
					}
				case "failed":
					// 12% of links and a third of the servers down: candidates
					// cut off from the source, unreachable destinations.
					for e := 0; e < nw.NumEdges(); e++ {
						if rng.Float64() < 0.12 {
							if err := nw.SetLinkUp(e, false); err != nil {
								t.Fatal(err)
							}
						}
					}
					for _, v := range nw.Servers() {
						if rng.Float64() < 0.34 {
							if err := nw.SetServerUp(v, false); err != nil {
								t.Fatal(err)
							}
						}
					}
				}

				for i := 0; i < n; i++ {
					req, gerr := gen.Next()
					if gerr != nil {
						t.Fatal(gerr)
					}
					got, gotErr := prod.Plan(context.Background(), nw, req, arena)
					want, wantErr := ref.planPerCandidateReference(context.Background(), nw, req, refArena)
					total++
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("request %d: err mismatch: got %v, reference %v", i, gotErr, wantErr)
					}
					if gotErr != nil {
						if gotErr.Error() != wantErr.Error() {
							t.Fatalf("request %d: error text %q, reference %q", i, gotErr, wantErr)
						}
						if !errors.Is(gotErr, ErrRejected) {
							t.Fatalf("request %d: %v", i, gotErr)
						}
						rejected++
						continue
					}
					admitted++
					sameSolution(t, got, want, fmt.Sprintf("request %d", i))
					if state == "idle" {
						continue
					}
					// Move the residual state on so caches miss and
					// rebuild: commit the plan; live200 also departs the oldest.
					commit(got)
					if len(live) > 200 {
						if err := nw.Release(live[0]); err != nil {
							t.Fatal(err)
						}
						live = live[1:]
					}
				}
			})
		}
	}
	t.Logf("%d plans compared: %d admitted, %d rejected", total, admitted, rejected)
	if total < 2000 || rejected == 0 {
		t.Fatalf("coverage: %d plans compared (want ≥ 2000), %d rejections (want > 0)", total, rejected)
	}
}
