package graph

import (
	"math"
	"math/rand"
	"testing"
)

// The random graphs come from graph_test.go's randomConnectedGraph:
// continuous random weights make shortest-path ties measure-zero,
// matching the re-priced work graphs RepairInto is built for.

func sameShortestPaths(t *testing.T, got, want *ShortestPaths, n int) {
	t.Helper()
	if got.Source != want.Source {
		t.Fatalf("source %d != %d", got.Source, want.Source)
	}
	for v := 0; v < n; v++ {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
			t.Fatalf("Dist[%d] = %v, want %v (bit compare)", v, got.Dist[v], want.Dist[v])
		}
		if got.parentNode[v] != want.parentNode[v] {
			t.Fatalf("parent[%d] = %d, want %d", v, got.parentNode[v], want.parentNode[v])
		}
		if got.parentEdge[v] != want.parentEdge[v] {
			t.Fatalf("parentEdge[%d] = %d, want %d", v, got.parentEdge[v], want.parentEdge[v])
		}
		if got.depth[v] != want.depth[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, got.depth[v], want.depth[v])
		}
	}
}

// TestRepairIntoMatchesFresh is the randomized repaired-vs-fresh
// oracle: perturb a few weights, repair the old tree, and demand the
// result be bit-identical to a cold Dijkstra on the new weights.
func TestRepairIntoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ws DijkstraWorkspace
	for trial := 0; trial < 300; trial++ {
		n := 8 + rng.Intn(60)
		g := randomConnectedGraph(rng, n, n/2)
		src := rng.Intn(n)

		var old ShortestPaths
		if err := ws.DijkstraInto(g, src, &old); err != nil {
			t.Fatal(err)
		}

		// Perturb 1..6 random edges: mix of increases and decreases.
		k := 1 + rng.Intn(6)
		changed := make([]EdgeID, 0, k)
		for i := 0; i < k; i++ {
			e := rng.Intn(g.NumEdges())
			var w float64
			if rng.Intn(2) == 0 {
				w = g.Weight(e) * (1.5 + rng.Float64())
			} else {
				w = g.Weight(e) * (0.1 + 0.5*rng.Float64())
			}
			if err := g.SetWeight(e, w); err != nil {
				t.Fatal(err)
			}
			changed = append(changed, e)
		}

		var repairedSP, fresh ShortestPaths
		repaired, err := ws.RepairInto(g, &old, changed, n, &repairedSP)
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.DijkstraInto(g, src, &fresh); err != nil {
			t.Fatal(err)
		}
		_ = repaired // both the repaired and fallback paths must agree
		sameShortestPaths(t, &repairedSP, &fresh, n)
	}
}

// TestRepairIntoListingUnchangedEdges verifies that over-reporting the
// change set (listing edges whose weight did not move) is harmless.
func TestRepairIntoListingUnchangedEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ws DijkstraWorkspace
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(30)
		g := randomConnectedGraph(rng, n, n)
		src := rng.Intn(n)
		var old ShortestPaths
		if err := ws.DijkstraInto(g, src, &old); err != nil {
			t.Fatal(err)
		}
		e := rng.Intn(g.NumEdges())
		if err := g.SetWeight(e, g.Weight(e)*3); err != nil {
			t.Fatal(err)
		}
		// Report the changed edge plus a handful of untouched ones.
		changed := []EdgeID{e}
		for i := 0; i < 4; i++ {
			changed = append(changed, rng.Intn(g.NumEdges()))
		}
		var got, want ShortestPaths
		if _, err := ws.RepairInto(g, &old, changed, n, &got); err != nil {
			t.Fatal(err)
		}
		if err := ws.DijkstraInto(g, src, &want); err != nil {
			t.Fatal(err)
		}
		sameShortestPaths(t, &got, &want, n)
	}
}

func TestRepairIntoNoChanges(t *testing.T) {
	g := lineGraph(6)
	var ws DijkstraWorkspace
	var old, got ShortestPaths
	if err := ws.DijkstraInto(g, 0, &old); err != nil {
		t.Fatal(err)
	}
	repaired, err := ws.RepairInto(g, &old, nil, 6, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("no-op repair reported repaired=false")
	}
	sameShortestPaths(t, &got, &old, 6)
}

func TestRepairIntoDamageFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(rng, 40, 30)
	var ws DijkstraWorkspace
	var old ShortestPaths
	if err := ws.DijkstraInto(g, 0, &old); err != nil {
		t.Fatal(err)
	}
	// Make a near-root tree edge much heavier: large damage region.
	var rootEdge EdgeID = -1
	for v := 0; v < 40; v++ {
		if old.parentNode[v] == 0 {
			rootEdge = EdgeID(old.parentEdge[v])
			break
		}
	}
	if rootEdge < 0 {
		t.Fatal("no tree edge at the root")
	}
	if err := g.SetWeight(rootEdge, g.Weight(rootEdge)*100); err != nil {
		t.Fatal(err)
	}
	var got, want ShortestPaths
	repaired, err := ws.RepairInto(g, &old, []EdgeID{rootEdge}, 0, &got)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Fatal("maxDamage=0 still reported repaired=true")
	}
	if err := ws.DijkstraInto(g, 0, &want); err != nil {
		t.Fatal(err)
	}
	sameShortestPaths(t, &got, &want, 40)
}

func TestRepairIntoNilOldFallsBack(t *testing.T) {
	g := lineGraph(5)
	var ws DijkstraWorkspace
	var got ShortestPaths
	if _, err := ws.RepairInto(g, nil, nil, 5, &got); err == nil {
		t.Fatal("nil old must error (no source to fall back to)")
	}
	// A stale old (wrong size) falls back to a fresh run on old.Source.
	small := lineGraph(3)
	var old ShortestPaths
	if err := ws.DijkstraInto(small, 0, &old); err != nil {
		t.Fatal(err)
	}
	repaired, err := ws.RepairInto(g, &old, nil, 5, &got)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Fatal("size-mismatched old reported repaired=true")
	}
	var want ShortestPaths
	if err := ws.DijkstraInto(g, 0, &want); err != nil {
		t.Fatal(err)
	}
	sameShortestPaths(t, &got, &want, 5)
}

func TestRepairIntoEdgeOutOfRange(t *testing.T) {
	g := lineGraph(4)
	var ws DijkstraWorkspace
	var old, got ShortestPaths
	if err := ws.DijkstraInto(g, 0, &old); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.RepairInto(g, &old, []EdgeID{99}, 4, &got); err == nil {
		t.Fatal("out-of-range changed edge accepted")
	}
}
