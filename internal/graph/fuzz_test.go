package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzClosureMST runs TestDenseClosureMSTMatchesPrim's oracle on
// fuzzed closures: 2–14 terminals whose distances are data's bytes in
// sixteenths, so equal distances are common, and the tree of terminal
// missing absent when it is in range (the seed corpus runs in normal
// `go test`; `go test -fuzz=FuzzClosureMST` explores further).
func FuzzClosureMST(f *testing.F) {
	f.Add(uint8(3), uint8(255), []byte{16, 32, 48})
	f.Add(uint8(9), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(uint8(12), uint8(0), []byte{7})
	f.Fuzz(func(t *testing.T, kRaw, missing uint8, data []byte) {
		k := 2 + int(kRaw)%13
		w := make([][]float64, k)
		next := 0
		for i := range w {
			w[i] = make([]float64, k)
			for j := range w[i] {
				if i != j && len(data) > 0 {
					w[i][j] = float64(data[next%len(data)]) / 16
					next++
				}
			}
		}
		miss := int(missing)
		if miss >= k {
			miss = -1
		}
		terms, sps := closureCase(w, miss)
		checkDenseClosureMST(t, terms, sps)
	})
}

// FuzzSteinerKMB drives the Steiner pipeline with arbitrary seeds and
// sizes, asserting the structural invariants on every input, and
// cross-checks a sweep over the other terminals against the
// full-closure call for every node as the varying terminal, then for a
// random virtual row — rooted, or a subset of up to three servers —
// as the virtual terminal (the seed corpus runs in normal `go test`;
// `go test -fuzz=FuzzSteinerKMB` explores further). A quarter of the
// seeds (seed&3 == 3) draw weights 1..3 and ω 0..3 instead of
// continuous ones, so closure edges tie and the sweep's tie fallback
// runs.
func FuzzSteinerKMB(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(15), uint8(1))
	f.Add(int64(42), uint8(30), uint8(6), uint8(50), uint8(6))
	f.Add(int64(-7), uint8(4), uint8(2), uint8(0), uint8(0))
	f.Add(int64(3), uint8(20), uint8(7), uint8(30), uint8(2))
	f.Add(int64(7), uint8(35), uint8(5), uint8(45), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, termsRaw, extraRaw, rowRaw uint8) {
		n := 2 + int(nRaw)%40
		rng := rand.New(rand.NewSource(seed))
		ints := seed&3 == 3
		g := randomConnectedGraph(rng, n, int(extraRaw)%60)
		if ints {
			for e := 0; e < g.NumEdges(); e++ {
				if err := g.SetWeight(e, float64(1+rng.Intn(3))); err != nil {
					t.Fatal(err)
				}
			}
		}
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
			wantErr := steinerKMB(g, terms, sps, nil, &full, &want, true)
			if !sameTree(&got, gotErr, &want, wantErr) {
				t.Fatalf("sweep over %v at %d, v %d (seed=%d n=%d):\n got %v (w=%v, err %v)\nwant %v (w=%v, err %v)",
					fixed, at, v, seed, n, got.EdgeIDs, got.Weight, gotErr, want.EdgeIDs, want.Weight, wantErr)
			}
		}
		if len(fixed) == 0 {
			return
		}

		// The same sweep with a virtual terminal in v's slot.
		trees := make([]*ShortestPaths, n)
		omega := make([]float64, n)
		row := steinerRow{rooted: rowRaw%4 == 0}
		var servers []NodeID
		if row.rooted {
			row.root = rng.Intn(n)
			servers = []NodeID{row.root}
		} else {
			servers = rng.Perm(n)[:1+int(rowRaw)%min(3, n)]
		}
		for _, v := range servers {
			if trees[v], err = Dijkstra(g, v); err != nil {
				t.Fatal(err)
			}
			if ints {
				omega[v] = float64(rng.Intn(4))
			} else {
				omega[v] = float64(rowRaw) * rng.Float64()
			}
		}
		via, w, ok := entryRow(fixed, servers, trees, omega)
		if !ok {
			t.Fatalf("connected graph cut a terminal off from servers %v", servers)
		}
		if row.rooted {
			w = nil
		}
		gotSrv, gotErr := sweep.SweepRow(via, w, &got)
		row.via = append(append(append([]*ShortestPaths(nil), via[:at]...), nil), via[at:]...)
		if !row.rooted {
			row.omega = append(append(append([]float64(nil), w[:at]...), 0), w[at:]...)
		}
		terms[at] = virtualTerm
		wantErr := steinerKMB(g, terms, sps, &row, &full, &want, true)
		want.Terminals = fixed
		if !sameTree(&got, gotErr, &want, wantErr) || fmt.Sprint(gotSrv) != fmt.Sprint(row.servers) {
			t.Fatalf("row sweep over %v at %d, servers %v rooted=%v (seed=%d n=%d):\n got %v %v (w=%v, err %v)\nwant %v %v (w=%v, err %v)",
				fixed, at, servers, row.rooted, seed, n, gotSrv, got.EdgeIDs, got.Weight, gotErr,
				row.servers, want.EdgeIDs, want.Weight, wantErr)
		}
		// Host edges acyclic, every fixed terminal joined to a used
		// server, and the weight the host edges' then the virtual edges'.
		dsu = NewDisjointSet(n)
		weight := 0.0
		for _, id := range got.EdgeIDs {
			e := g.Edge(id)
			if !dsu.Union(e.U, e.V) {
				t.Fatalf("cycle in row tree (seed=%d n=%d)", seed, n)
			}
			weight += e.W
		}
		for _, v := range gotSrv {
			if !row.rooted {
				weight += omega[v]
			}
		}
		for _, f := range fixed {
			joined := false
			for _, v := range gotSrv {
				joined = joined || dsu.Connected(f, v)
			}
			if !joined {
				t.Fatalf("terminal %d joins no server of %v (seed=%d n=%d)", f, gotSrv, seed, n)
			}
		}
		if math.Float64bits(weight) != math.Float64bits(got.Weight) {
			t.Fatalf("row tree weight %v, edges and servers sum to %v (seed=%d n=%d)", got.Weight, weight, seed, n)
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
