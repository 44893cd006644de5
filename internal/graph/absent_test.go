package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/topology"
)

// absentPair is one graph priced two ways: full keeps every edge and
// prices the absent ones at +Inf; sub is built from the present edges
// alone, in the same insertion order. toFull maps sub's edge IDs to
// full's.
type absentPair struct {
	full, sub *graph.Graph
	toFull    []graph.EdgeID
}

func newAbsentPair(t *testing.T, n int, seed int64, ties bool) absentPair {
	t.Helper()
	topo, err := topology.WaxmanDegree(n, topology.DefaultAvgDegree, 0.14, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	full := topo.Graph.Clone()
	sub := graph.New(n)
	var toFull []graph.EdgeID
	for e := 0; e < full.NumEdges(); e++ {
		w := rng.ExpFloat64()
		if ties {
			w = float64(1 + rng.Intn(3))
		}
		if rng.Intn(5) == 0 {
			w = math.Inf(1)
		} else {
			ed := full.Edge(e)
			sub.MustAddEdge(ed.U, ed.V, w)
			toFull = append(toFull, e)
		}
		if err := full.SetWeight(e, w); err != nil {
			t.Fatal(err)
		}
	}
	return absentPair{full: full, sub: sub, toFull: toFull}
}

// sameTrees demands bit-identical distances and identical paths (so
// parents, parent edges and depths) from every node, sub's edge IDs
// mapped to full's; toFull is nil when both trees are on one graph.
func sameTrees(t *testing.T, label string, got, want *graph.ShortestPaths, toFull []graph.EdgeID) {
	t.Helper()
	for v := range got.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
			t.Fatalf("%s: Dist[%d] = %v, want %v", label, v, got.Dist[v], want.Dist[v])
		}
		gn, ge, gok := got.PathTo(v)
		wn, we, wok := want.PathTo(v)
		if toFull != nil {
			for i, e := range we {
				we[i] = toFull[e]
			}
		}
		if gok != wok || fmt.Sprint(gn, ge) != fmt.Sprint(wn, we) {
			t.Fatalf("%s: path to %d = %v %v, want %v %v", label, v, gn, ge, wn, we)
		}
	}
}

// sameSteiner demands equal errors, terminals, weight bits and edges,
// sub's edge IDs mapped to full's.
func sameSteiner(t *testing.T, label string, got *graph.SteinerTree, gotErr error, want *graph.SteinerTree, wantErr error, toFull []graph.EdgeID) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	edges := make([]graph.EdgeID, len(want.EdgeIDs))
	for i, e := range want.EdgeIDs {
		edges[i] = toFull[e]
	}
	if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
		fmt.Sprint(got.Terminals, got.EdgeIDs) != fmt.Sprint(want.Terminals, edges) {
		t.Fatalf("%s: tree %v %v (w=%v), want %v %v (w=%v)",
			label, got.Terminals, got.EdgeIDs, got.Weight, want.Terminals, edges, want.Weight)
	}
}

// TestInfiniteWeightIsAbsent is the contract core's work graphs rest
// on: pricing an edge at +Inf is the same as leaving it out. On Waxman
// graphs of 20–150 nodes, with continuous and tie-heavy prices and a
// random fifth of the edges at +Inf, the graph without those edges
// (inserted in the same order) must give the same Dijkstra trees bit
// for bit, the same KMB trees and the same sweep trees and rows. A
// ReuseInto from a seed built under another pricing, which moves
// edges in and out, must either certify a tree bit-identical to
// Dijkstra's or refuse.
func TestInfiniteWeightIsAbsent(t *testing.T) {
	var certified, refused int
	for _, n := range []int{20, 60, 100, 150} {
		for seed := int64(1); seed <= 4; seed++ {
			ties := seed%2 == 0
			label := fmt.Sprintf("n=%d seed=%d ties=%v", n, seed, ties)
			p := newAbsentPair(t, n, seed, ties)
			rng := rand.New(rand.NewSource(seed * 7919))

			var ws graph.DijkstraWorkspace
			full := make([]*graph.ShortestPaths, n)
			for r := 0; r < n; r++ {
				sp, err := graph.Dijkstra(p.full, r)
				if err != nil {
					t.Fatal(err)
				}
				want, err := graph.Dijkstra(p.sub, r)
				if err != nil {
					t.Fatal(err)
				}
				sameTrees(t, fmt.Sprintf("%s root %d", label, r), sp, want, p.toFull)
				full[r] = sp
			}

			// Another pricing: some edges move in or out, some change.
			other := p.full.Clone()
			for i := 0; i < 3; i++ {
				e := rng.Intn(other.NumEdges())
				w := rng.ExpFloat64()
				if !math.IsInf(other.Weight(e), 1) {
					w = math.Inf(1)
				}
				if err := other.SetWeight(e, w); err != nil {
					t.Fatal(err)
				}
				if err := other.SetWeight(rng.Intn(other.NumEdges()), rng.ExpFloat64()); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < n; r++ {
				seedTree, err := graph.Dijkstra(other, r)
				if err != nil {
					t.Fatal(err)
				}
				var sp graph.ShortestPaths
				ok, err := ws.ReuseInto(p.full, seedTree, &sp)
				if err != nil {
					t.Fatalf("%s root %d: reuse: %v", label, r, err)
				}
				if !ok {
					refused++
					continue
				}
				certified++
				sameTrees(t, fmt.Sprintf("%s root %d (reused)", label, r), &sp, full[r], nil)
			}

			var sFull, sSub graph.SteinerScratch
			var gotTree, wantTree graph.SteinerTree
			for trial := 0; trial < 8; trial++ {
				terms := rng.Perm(n)[:2+rng.Intn(min(8, n-2))]
				got, gotErr := graph.SteinerKMBScratch(p.full, terms, &sFull)
				want, wantErr := graph.SteinerKMBScratch(p.sub, terms, &sSub)
				tl := fmt.Sprintf("%s KMB %v", label, terms)
				sameSteiner(t, tl, got, gotErr, want, wantErr, p.toFull)

				// A sweep over the first terminals, varying the last one
				// over every node, then rows of random server subsets.
				fixed, at := terms[:len(terms)-1], rng.Intn(len(terms))
				fullSPs, subSPs := make([]*graph.ShortestPaths, len(fixed)), make([]*graph.ShortestPaths, len(fixed))
				for i, f := range fixed {
					fullSPs[i] = full[f]
					sp, err := graph.Dijkstra(p.sub, f)
					if err != nil {
						t.Fatal(err)
					}
					subSPs[i] = sp
				}
				if err := sFull.BeginSweep(p.full, fixed, fullSPs, at); err != nil {
					t.Fatal(err)
				}
				if err := sSub.BeginSweep(p.sub, fixed, subSPs, at); err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					gotErr := sFull.SweepTree(v, &gotTree)
					wantErr := sSub.SweepTree(v, &wantTree)
					sameSteiner(t, fmt.Sprintf("%s sweep %v at %d, v=%d", tl, fixed, at, v),
						&gotTree, gotErr, &wantTree, wantErr, p.toFull)
				}
				for row := 0; row < 8; row++ {
					servers := rng.Perm(n)[:1+rng.Intn(3)]
					omega := make([]float64, len(servers))
					for i := range omega {
						omega[i] = float64(rng.Intn(4))
					}
					fullVia, fullW, ok := absentEntryRow(fixed, servers, omega, func(v graph.NodeID) *graph.ShortestPaths { return full[v] })
					subVia, subW, _ := absentEntryRow(fixed, servers, omega, func(v graph.NodeID) *graph.ShortestPaths {
						sp, derr := graph.Dijkstra(p.sub, v)
						if derr != nil {
							t.Fatal(derr)
						}
						return sp
					})
					if !ok {
						continue
					}
					gotSrv, gotErr := sFull.SweepRow(fullVia, fullW, &gotTree)
					gotSrv = append([]graph.NodeID(nil), gotSrv...)
					wantSrv, wantErr := sSub.SweepRow(subVia, subW, &wantTree)
					rl := fmt.Sprintf("%s row %v", tl, servers)
					sameSteiner(t, rl, &gotTree, gotErr, &wantTree, wantErr, p.toFull)
					if fmt.Sprint(gotSrv) != fmt.Sprint(wantSrv) {
						t.Fatalf("%s: servers %v, want %v", rl, gotSrv, wantSrv)
					}
				}
			}
		}
	}
	t.Logf("reuse across pricings: %d certified, %d refused", certified, refused)
	if certified == 0 || refused == 0 {
		t.Fatalf("reuse verdicts %d certified, %d refused: both must occur", certified, refused)
	}
}

// absentEntryRow is a subset row: each fixed terminal enters from the
// server that reaches it cheapest (virtual weight plus distance), ties
// to the earlier server. ok is false when no server reaches some
// terminal.
func absentEntryRow(
	fixed, servers []graph.NodeID, omega []float64, tree func(graph.NodeID) *graph.ShortestPaths,
) (via []*graph.ShortestPaths, w []float64, ok bool) {
	sps := make([]*graph.ShortestPaths, len(servers))
	for i, v := range servers {
		sps[i] = tree(v)
	}
	for _, f := range fixed {
		best, bestI := graph.Infinity, -1
		for i, sp := range sps {
			if d := sp.Dist[f]; d < graph.Infinity && omega[i]+d < best {
				best, bestI = omega[i]+d, i
			}
		}
		if bestI == -1 {
			return nil, nil, false
		}
		via = append(via, sps[bestI])
		w = append(w, omega[bestI])
	}
	return via, w, true
}
