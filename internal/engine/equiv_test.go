package engine

// Determinism oracle for incremental cache maintenance under live
// maintenance traffic: a sequentially-driven engine must make
// byte-identical decisions at every worker count even when admissions
// interleave with Apply batches that resize capacities, fail and restore
// links and servers — the mutations that drive the work-graph cache
// through its patch, repair and cold-rebuild paths.

import (
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/sdn"
)

// interleavedUpdate applies one deterministic maintenance batch derived
// from the step index. Every branch computes its target and magnitude
// from the current network state, read first under the writer lock,
// which is identical across worker counts when the preceding decision
// sequence is, so the batch sequence is too.
func interleavedUpdate(t *testing.T, eng *Engine, step int) {
	t.Helper()
	var muts []Mutation
	err := eng.SnapshotState(func(nw *sdn.Network, _ []*core.Solution) {
		e := graph.EdgeID((step*13 + 5) % nw.NumEdges())
		switch step % 4 {
		case 0: // shrink the link towards its allocated share —
			// residual-class threshold crossings for in-pool demands
			allocated := nw.BandwidthCap(e) - nw.ResidualBandwidth(e)
			muts = []Mutation{{Kind: LinkCapacity, ID: e, Capacity: allocated + 0.4*nw.ResidualBandwidth(e) + 1}}
		case 1: // fail then restore a link: StructureVersion moves,
			// retiring the cache family (cold rebuild path)
			muts = []Mutation{{Kind: LinkState, ID: e, Up: false}, {Kind: LinkState, ID: e, Up: true}}
		case 2: // resize a server's compute
			servers := nw.Servers()
			v := servers[step%len(servers)]
			allocated := nw.ComputeCap(v) - nw.ResidualCompute(v)
			muts = []Mutation{{Kind: ServerCapacity, ID: v, Capacity: allocated + 0.75*nw.ResidualCompute(v) + 1}}
		default: // grow the link back
			allocated := nw.BandwidthCap(e) - nw.ResidualBandwidth(e)
			muts = []Mutation{{Kind: LinkCapacity, ID: e, Capacity: allocated + 2*nw.ResidualBandwidth(e) + 1}}
		}
	})
	if err == nil {
		err = eng.Apply(muts...)
	}
	if err != nil {
		t.Fatalf("update at step %d: %v", step, err)
	}
}

// TestEngineDeterminismWithInterleavedUpdates drives the same
// admit/depart/update schedule at workers 1, 4 and 8 over both
// topologies and demands byte-identical decisions (servers, per-link
// loads, both costs) at every step.
func TestEngineDeterminismWithInterleavedUpdates(t *testing.T) {
	const requests = 90
	for _, topoName := range []string{"geant", "waxman"} {
		for _, alg := range []string{"Online_CP", "Online_CPK"} {
			topoName, alg := topoName, alg
			t.Run(topoName+"/"+alg, func(t *testing.T) {
				seed := int64(11)
				var want []decision
				for wi, workers := range []int{1, 4, 8} {
					nw := testNetwork(t, topoName, seed)
					reqs := requestPool(t, nw.NumNodes(), requests, seed+5)
					eng := New(nw, plannerFor(t, alg, nw), Options{Workers: workers})
					var got []decision
					var live []int
					for i, req := range reqs {
						if i%7 == 3 {
							interleavedUpdate(t, eng, i)
						}
						d := captureDecision(eng.Admit(req))
						got = append(got, d)
						if d.admitted {
							live = append(live, req.ID)
						}
						if i%5 == 4 && len(live) > 0 {
							if _, err := eng.Depart(live[0]); err != nil {
								eng.Close()
								t.Fatalf("workers=%d: depart %d: %v", workers, live[0], err)
							}
							live = live[1:]
						}
					}
					eng.Close()
					if wi == 0 {
						want = got
						continue
					}
					for i := range got {
						if !sameDecision(want[i], got[i]) {
							t.Fatalf("workers=%d request %d: decision diverged (admitted %v vs %v)",
								workers, i, got[i].admitted, want[i].admitted)
						}
					}
				}
			})
		}
	}
}
