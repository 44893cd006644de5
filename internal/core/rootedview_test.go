package core

import (
	"errors"
	"math/rand"
	"testing"

	"nfvmcast/internal/graph"
)

// TestRootedViewMatchesRootedTree drives one reused rootedView and
// graph.NewRootedTree over the same edge sets: both must accept or
// refuse together (with ErrNotATree / ErrNodeOutOfRange alike), and on
// acceptance agree on membership, parents, depths and every pairwise
// LCA. The reuse is the point — stamps from a larger or a refused tree
// must not leak into the next one.
func TestRootedViewMatchesRootedTree(t *testing.T) {
	// 0-1-2-3 path, 1-4 branch, 2-4 closing a cycle, 5-6 apart, 7 isolated,
	// and a parallel 0-1 edge.
	g := graph.New(8)
	e01 := g.MustAddEdge(0, 1, 1)
	e12 := g.MustAddEdge(1, 2, 1)
	e23 := g.MustAddEdge(2, 3, 1)
	e14 := g.MustAddEdge(1, 4, 1)
	e24 := g.MustAddEdge(2, 4, 1)
	e56 := g.MustAddEdge(5, 6, 1)
	e01b := g.MustAddEdge(0, 1, 2)

	cases := []struct {
		name  string
		edges []graph.EdgeID
		root  graph.NodeID
		ok    bool
	}{
		{"tree from an end", []graph.EdgeID{e01, e12, e23, e14}, 0, true},
		{"same tree from the middle", []graph.EdgeID{e14, e23, e01, e12}, 2, true},
		{"isolated root, no edges", nil, 7, true},
		{"single edge", []graph.EdgeID{e56}, 6, true},
		{"cycle", []graph.EdgeID{e12, e14, e24}, 1, false},
		{"cycle hanging off a path", []graph.EdgeID{e01, e12, e14, e24, e23}, 0, false},
		{"parallel edges", []graph.EdgeID{e01, e01b}, 0, false},
		{"repeated edge ID", []graph.EdgeID{e01, e12, e01}, 0, false},
		{"disconnected part", []graph.EdgeID{e01, e12, e56}, 0, false},
		{"root-less: root off the edge set", []graph.EdgeID{e01, e12}, 5, false},
		{"root-less: isolated root with edges elsewhere", []graph.EdgeID{e56}, 7, false},
		{"root out of range", []graph.EdgeID{e01}, 8, false},
		{"negative root", []graph.EdgeID{e01}, -1, false},
		{"tree again after refusals", []graph.EdgeID{e12, e24}, 4, true},
	}
	var view rootedView
	for _, tc := range cases {
		want, wantErr := graph.NewRootedTree(g, tc.edges, tc.root)
		gotErr := view.root(g, tc.edges, tc.root)
		if (wantErr == nil) != tc.ok {
			t.Fatalf("%s: graph.NewRootedTree err = %v, table says ok=%v", tc.name, wantErr, tc.ok)
		}
		if (gotErr == nil) != tc.ok {
			t.Fatalf("%s: rootedView err = %v, want ok=%v", tc.name, gotErr, tc.ok)
		}
		if !tc.ok {
			for _, sentinel := range []error{graph.ErrNotATree, graph.ErrNodeOutOfRange} {
				if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
					t.Fatalf("%s: rootedView %v vs graph.NewRootedTree %v", tc.name, gotErr, wantErr)
				}
			}
			continue
		}
		compareRooted(t, tc.name, g, &view, want)
	}
}

// TestRootedViewRandomSpanningTrees repeats the comparison on random
// subtrees of random graphs of varying size through one view.
func TestRootedViewRandomSpanningTrees(t *testing.T) {
	var view rootedView
	accepted, refused := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := graph.New(n)
		var treeEdges []graph.EdgeID
		for v := 1; v < n; v++ {
			id := g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64())
			if rng.Intn(12) > 0 || v == 1 { // drop a few: some sets fall apart
				treeEdges = append(treeEdges, id)
			}
		}
		for i := 0; i < n; i++ { // chords the tree must ignore
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.MustAddEdge(u, v, 1)
			}
		}
		rng.Shuffle(len(treeEdges), func(i, j int) { treeEdges[i], treeEdges[j] = treeEdges[j], treeEdges[i] })
		root := graph.NodeID(rng.Intn(n))
		want, wantErr := graph.NewRootedTree(g, treeEdges, root)
		gotErr := view.root(g, treeEdges, root)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: rootedView err %v, graph.NewRootedTree err %v", seed, gotErr, wantErr)
		}
		if wantErr != nil {
			refused++
			continue
		}
		accepted++
		compareRooted(t, "random", g, &view, want)
	}
	if accepted < 10 || refused < 10 {
		t.Fatalf("coverage: %d accepted, %d refused", accepted, refused)
	}
}

func compareRooted(t *testing.T, name string, g *graph.Graph, view *rootedView, want *graph.RootedTree) {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		if view.inTree(v) != want.InTree(v) {
			t.Fatalf("%s: inTree(%d) = %v, want %v", name, v, view.inTree(v), want.InTree(v))
		}
		if !want.InTree(v) {
			if _, ok := view.lca(v, want.Root()); ok {
				t.Fatalf("%s: lca with outside node %d accepted", name, v)
			}
			continue
		}
		if view.parentNode[v] != want.Parent(v) || view.parentEdge[v] != want.ParentEdge(v) ||
			int(view.depth[v]) != want.Depth(v) {
			t.Fatalf("%s: node %d: parent %d via %d depth %d, want %d via %d depth %d", name, v,
				view.parentNode[v], view.parentEdge[v], view.depth[v],
				want.Parent(v), want.ParentEdge(v), want.Depth(v))
		}
		for u := 0; u < g.NumNodes(); u++ {
			if !want.InTree(u) {
				continue
			}
			wantLCA, err := want.LCA(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := view.lca(u, v); !ok || got != wantLCA {
				t.Fatalf("%s: lca(%d,%d) = %d,%v, want %d", name, u, v, got, ok, wantLCA)
			}
		}
	}
}
