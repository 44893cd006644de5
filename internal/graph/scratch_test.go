package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestDijkstraIntoMatchesFresh runs one workspace across many roots of
// many random graphs and checks each result is identical to a fresh
// Dijkstra — the workspace must leak no state between runs.
func TestDijkstraIntoMatchesFresh(t *testing.T) {
	var ws DijkstraWorkspace
	sp := new(ShortestPaths)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 2+rng.Intn(40), rng.Intn(60))
		// Occasionally isolate a node so unreachable handling is
		// exercised through the reused workspace too.
		if seed%4 == 0 {
			g.AddNode()
		}
		for root := 0; root < g.NumNodes(); root++ {
			if err := ws.DijkstraInto(g, root, sp); err != nil {
				t.Fatalf("seed %d root %d: DijkstraInto: %v", seed, root, err)
			}
			want, err := Dijkstra(g, root)
			if err != nil {
				t.Fatalf("seed %d root %d: Dijkstra: %v", seed, root, err)
			}
			if !reflect.DeepEqual(sp.Dist, want.Dist) {
				t.Fatalf("seed %d root %d: Dist mismatch", seed, root)
			}
			for v := 0; v < g.NumNodes(); v++ {
				gotN, gotE, gotOK := sp.PathTo(v)
				wantN, wantE, wantOK := want.PathTo(v)
				if gotOK != wantOK || !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotE, wantE) {
					t.Fatalf("seed %d root %d target %d: PathTo mismatch:\n got %v %v %v\nwant %v %v %v",
						seed, root, v, gotN, gotE, gotOK, wantN, wantE, wantOK)
				}
				if sp.Depth(v) != want.Depth(v) {
					t.Fatalf("seed %d root %d target %d: Depth %d != %d",
						seed, root, v, sp.Depth(v), want.Depth(v))
				}
			}
		}
	}
}

// TestVisitPathEdgesMatchesPathTo checks the allocation-free edge walk
// yields PathTo's edges in reverse (target → source) order.
func TestVisitPathEdgesMatchesPathTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(rng, 30, 40)
	sp, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		var walked []EdgeID
		ok := sp.VisitPathEdges(v, func(e EdgeID) bool {
			walked = append(walked, e)
			return true
		})
		_, edges, wantOK := sp.PathTo(v)
		if ok != wantOK {
			t.Fatalf("target %d: ok %v != %v", v, ok, wantOK)
		}
		for i, j := 0, len(walked)-1; i < j; i, j = i+1, j-1 {
			walked[i], walked[j] = walked[j], walked[i]
		}
		if len(walked) != len(edges) {
			t.Fatalf("target %d: %d edges walked, want %d", v, len(walked), len(edges))
		}
		for i := range walked {
			if walked[i] != edges[i] {
				t.Fatalf("target %d: edge %d: %d != %d", v, i, walked[i], edges[i])
			}
		}
	}
}

// TestSteinerKMBWithSPsMatchesSteinerKMB feeds precomputed per-terminal
// shortest paths (the planner's sharing pattern) through one reused
// scratch and checks every tree is byte-identical to the scratch-free
// SteinerKMB — including with duplicated terminals, whose trees must
// dedup in lockstep.
func TestSteinerKMBWithSPsMatchesSteinerKMB(t *testing.T) {
	scratch := new(SteinerScratch)
	var ws DijkstraWorkspace
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := randomConnectedGraph(rng, n, rng.Intn(70))
		// Precompute one tree per node, as the planner shares them.
		sps := make([]*ShortestPaths, n)
		for v := 0; v < n; v++ {
			sps[v] = new(ShortestPaths)
			if err := ws.DijkstraInto(g, v, sps[v]); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 10; trial++ {
			k := 1 + rng.Intn(6)
			terms := make([]NodeID, k)
			termSPs := make([]*ShortestPaths, k)
			for i := range terms {
				terms[i] = rng.Intn(n)
				termSPs[i] = sps[terms[i]]
			}
			if trial%3 == 0 && k > 1 { // force a duplicate
				terms[k-1] = terms[0]
				termSPs[k-1] = termSPs[0]
			}
			got, err := SteinerKMBWithSPs(g, terms, termSPs, scratch)
			if err != nil {
				t.Fatalf("seed %d trial %d: WithSPs: %v", seed, trial, err)
			}
			want, err := SteinerKMB(g, terms)
			if err != nil {
				t.Fatalf("seed %d trial %d: SteinerKMB: %v", seed, trial, err)
			}
			if !reflect.DeepEqual(got.Terminals, want.Terminals) {
				t.Fatalf("seed %d trial %d: terminals %v != %v", seed, trial, got.Terminals, want.Terminals)
			}
			if len(got.EdgeIDs) != len(want.EdgeIDs) || got.Weight != want.Weight {
				t.Fatalf("seed %d trial %d: tree mismatch: %v (w=%v) != %v (w=%v)",
					seed, trial, got.EdgeIDs, got.Weight, want.EdgeIDs, want.Weight)
			}
			for i := range got.EdgeIDs {
				if got.EdgeIDs[i] != want.EdgeIDs[i] {
					t.Fatalf("seed %d trial %d: edge %d: %d != %d",
						seed, trial, i, got.EdgeIDs[i], want.EdgeIDs[i])
				}
			}
		}
	}
}

// TestSteinerKMBWithSPsValidation covers the argument contract: length
// mismatch and wrong-root trees must be rejected.
func TestSteinerKMBWithSPsValidation(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	sp0, _ := Dijkstra(g, 0)
	if _, err := SteinerKMBWithSPs(g, []NodeID{0, 2}, []*ShortestPaths{sp0}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := SteinerKMBWithSPs(g, []NodeID{0, 2}, []*ShortestPaths{sp0, sp0}, nil); err == nil {
		t.Fatal("wrong-root tree accepted")
	}
	sp2, _ := Dijkstra(g, 2)
	tree, err := SteinerKMBWithSPs(g, []NodeID{0, 2}, []*ShortestPaths{sp0, sp2}, nil)
	if err != nil || len(tree.EdgeIDs) != 2 {
		t.Fatalf("valid call failed: %v %v", tree, err)
	}
}

// TestSteinerScratchReuseAcrossGraphs runs one scratch across graphs of
// different sizes to shake out stale-capacity bugs (a larger graph
// followed by a smaller one and vice versa).
func TestSteinerScratchReuseAcrossGraphs(t *testing.T) {
	scratch := new(SteinerScratch)
	sizes := []int{40, 8, 60, 5, 25}
	for i, n := range sizes {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		g := randomConnectedGraph(rng, n, n)
		terms := []NodeID{0, n / 2, n - 1}
		got, err := SteinerKMBScratch(g, terms, scratch)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		want, err := SteinerKMB(g, terms)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !reflect.DeepEqual(got.EdgeIDs, want.EdgeIDs) || got.Weight != want.Weight {
			t.Fatalf("size %d: %v != %v", n, got.EdgeIDs, want.EdgeIDs)
		}
	}
}

// TestSteinerKMBNilRowMatchesFull pins the symmetric-closure-row form of
// SteinerKMBWithSPs: with any one terminal's tree withheld, the closure
// row read from the other terminals' trees must give the byte-identical
// tree (EdgeIDs and Weight) — or the same ErrDisconnected — as the
// all-trees call. Random float weights keep shortest paths and closure
// weights tie-free, the condition the doc comment states. Every third
// graph gets a second component so some terminal sets straddle it.
func TestSteinerKMBNilRowMatchesFull(t *testing.T) {
	scratch := new(SteinerScratch)
	graphs, disconnected, dupLater, dedupedAway := 0, 0, 0, 0
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := 4 + rng.Intn(40)
		g := randomConnectedGraph(rng, n, rng.Intn(70))
		if seed%3 == 0 { // a second component of 1-5 nodes
			base := g.NumNodes()
			for i, extra := 0, 1+rng.Intn(5); i < extra; i++ {
				v := g.AddNode()
				if v > base {
					g.MustAddEdge(base+rng.Intn(v-base), v, rng.Float64()*10)
				}
			}
			n = g.NumNodes()
		}
		graphs++
		sps := make([]*ShortestPaths, n)
		for v := range sps {
			sp, err := Dijkstra(g, v)
			if err != nil {
				t.Fatal(err)
			}
			sps[v] = sp
		}
		for trial := 0; trial < 4; trial++ {
			k := 2 + rng.Intn(6)
			terms := make([]NodeID, k)
			for i := range terms {
				terms[i] = rng.Intn(n)
			}
			switch trial {
			case 1: // the planner's server ∈ D_k: terminal 1 repeats at the end
				terms[k-1] = terms[k/2]
			case 2: // the planner's server == source: terminal 1 deduped away
				terms[1] = terms[0]
			}
			full := make([]*ShortestPaths, k)
			for i, v := range terms {
				full[i] = sps[v]
			}
			want, wantErr := SteinerKMBWithSPs(g, terms, full, scratch)
			if wantErr != nil {
				if !errors.Is(wantErr, ErrDisconnected) {
					t.Fatalf("seed %d trial %d: all-trees call: %v", seed, trial, wantErr)
				}
				disconnected++
			}
			for hole := range terms {
				// Withhold the tree at one position only; a later
				// duplicate of that terminal keeps its tree and must be
				// deduplicated away unused.
				first := true
				for _, v := range terms[:hole] {
					first = first && v != terms[hole]
				}
				later := false
				for _, v := range terms[hole+1:] {
					later = later || v == terms[hole]
				}
				if first && later {
					dupLater++
				}
				if !first {
					dedupedAway++
				}
				withNil := append([]*ShortestPaths(nil), full...)
				withNil[hole] = nil
				got, err := SteinerKMBWithSPs(g, terms, withNil, scratch)
				if wantErr != nil {
					if !errors.Is(err, ErrDisconnected) {
						t.Fatalf("seed %d trial %d hole %d: err %v, want ErrDisconnected", seed, trial, hole, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d trial %d hole %d: %v", seed, trial, hole, err)
				}
				if !reflect.DeepEqual(got.EdgeIDs, want.EdgeIDs) ||
					math.Float64bits(got.Weight) != math.Float64bits(want.Weight) ||
					!reflect.DeepEqual(got.Terminals, want.Terminals) {
					t.Fatalf("seed %d trial %d hole %d terms %v:\n got %v (w=%v)\nwant %v (w=%v)",
						seed, trial, hole, terms, got.EdgeIDs, got.Weight, want.EdgeIDs, want.Weight)
				}
			}
		}
	}
	if graphs < 300 || disconnected == 0 || dupLater == 0 || dedupedAway == 0 {
		t.Fatalf("coverage: %d graphs, %d disconnected sets, %d holes duplicated later, %d deduped away",
			graphs, disconnected, dupLater, dedupedAway)
	}
}

// TestSteinerKMBNilRowContract: an unreachable tree-less terminal is
// ErrDisconnected, two distinct tree-less terminals are refused, and a
// tree-less terminal alone is the trivial tree.
func TestSteinerKMBNilRowContract(t *testing.T) {
	g := New(4) // 0-1-2, node 3 isolated
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	sp0, _ := Dijkstra(g, 0)
	sp2, _ := Dijkstra(g, 2)
	if _, err := SteinerKMBWithSPs(g, []NodeID{0, 3, 2}, []*ShortestPaths{sp0, nil, sp2}, nil); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("unreachable tree-less terminal: err %v, want ErrDisconnected", err)
	}
	if _, err := SteinerKMBWithSPs(g, []NodeID{0, 1, 2}, []*ShortestPaths{sp0, nil, nil}, nil); err == nil {
		t.Fatal("two tree-less terminals accepted")
	}
	// The same tree-less terminal twice is one distinct terminal.
	tree, err := SteinerKMBWithSPs(g, []NodeID{0, 1, 1, 2}, []*ShortestPaths{sp0, nil, nil, sp2}, nil)
	if err != nil || !reflect.DeepEqual(tree.EdgeIDs, []EdgeID{0, 1}) {
		t.Fatalf("repeated tree-less terminal: %v %v", tree, err)
	}
	tree, err = SteinerKMBWithSPs(g, []NodeID{1}, []*ShortestPaths{nil}, nil)
	if err != nil || len(tree.EdgeIDs) != 0 {
		t.Fatalf("lone tree-less terminal: %v %v", tree, err)
	}
}
