package graph

import (
	"math/rand"
	"testing"
)

// FuzzSteinerKMB drives the Steiner pipeline with arbitrary seeds and
// sizes, asserting the structural invariants on every input, and
// cross-checks a sweep over the other terminals against the
// full-closure call for every node as the varying terminal (the seed
// corpus runs in normal `go test`; `go test -fuzz=FuzzSteinerKMB`
// explores further).
func FuzzSteinerKMB(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(15))
	f.Add(int64(42), uint8(30), uint8(6), uint8(50))
	f.Add(int64(-7), uint8(4), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, termsRaw, extraRaw uint8) {
		n := 2 + int(nRaw)%40
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, n, int(extraRaw)%60)
		nt := 1 + int(termsRaw)%min(8, n)
		terminals := rng.Perm(n)[:nt]
		st, err := SteinerKMB(g, terminals)
		if err != nil {
			t.Fatalf("connected graph rejected: %v", err)
		}
		// Acyclic + spans all terminals.
		dsu := NewDisjointSet(n)
		for _, id := range st.EdgeIDs {
			e := g.Edge(id)
			if !dsu.Union(e.U, e.V) {
				t.Fatalf("cycle in steiner tree (seed=%d n=%d)", seed, n)
			}
		}
		for _, term := range terminals[1:] {
			if !dsu.Connected(terminals[0], term) {
				t.Fatalf("terminal %d disconnected (seed=%d n=%d)", term, seed, n)
			}
		}
		if st.Weight < 0 {
			t.Fatalf("negative weight %v", st.Weight)
		}

		fixed := terminals[1:]
		fixedSPs := make([]*ShortestPaths, len(fixed))
		for i, f := range fixed {
			if fixedSPs[i], err = Dijkstra(g, f); err != nil {
				t.Fatal(err)
			}
		}
		at := rng.Intn(len(fixed) + 1)
		var sweep, full SteinerScratch
		if err := sweep.BeginSweep(g, fixed, fixedSPs, at); err != nil {
			t.Fatal(err)
		}
		terms := append(append(append([]NodeID(nil), fixed[:at]...), -1), fixed[at:]...)
		sps := append(append(append([]*ShortestPaths(nil), fixedSPs[:at]...), nil), fixedSPs[at:]...)
		var got, want SteinerTree
		for _, v := range rng.Perm(n) {
			gotErr := sweep.SweepTree(v, &got)
			terms[at] = v
			wantErr := steinerKMB(g, terms, sps, &full, &want)
			if !sameTree(&got, gotErr, &want, wantErr) {
				t.Fatalf("sweep over %v at %d, v %d (seed=%d n=%d):\n got %v (w=%v, err %v)\nwant %v (w=%v, err %v)",
					fixed, at, v, seed, n, got.EdgeIDs, got.Weight, gotErr, want.EdgeIDs, want.Weight, wantErr)
			}
		}
	})
}

// FuzzDijkstra checks distance sanity under arbitrary graphs.
func FuzzDijkstra(f *testing.F) {
	f.Add(int64(3), uint8(12), uint8(20))
	f.Add(int64(99), uint8(35), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw uint8) {
		n := 2 + int(nRaw)%50
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, n, int(extraRaw)%80)
		src := rng.Intn(n)
		sp, err := Dijkstra(g, src)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Dist[src] != 0 {
			t.Fatalf("Dist[src] = %v", sp.Dist[src])
		}
		// Edge relaxation: no edge may shortcut the distances.
		for _, e := range g.Edges() {
			if sp.Dist[e.V] > sp.Dist[e.U]+e.W+1e-9 ||
				sp.Dist[e.U] > sp.Dist[e.V]+e.W+1e-9 {
				t.Fatalf("edge {%d,%d} violates relaxation", e.U, e.V)
			}
		}
	})
}
