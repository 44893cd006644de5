package core

// Byte-identity oracles for the planning fast paths: subset
// branch-and-bound pruning and the dominated-subset skip in Appro_Multi
// and the admitter's fast-reject must be invisible in outputs —
// identical trees, costs and error messages to the unpruned/full paths.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// sameSolution asserts two solutions are byte-identical in everything
// the engine journals: tree hops, servers, and both costs (compared as
// float bits).
func sameSolution(t *testing.T, got, want *Solution, label string) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil mismatch: got %v, want %v", label, got, want)
	}
	if got == nil {
		return
	}
	if math.Float64bits(got.OperationalCost) != math.Float64bits(want.OperationalCost) {
		t.Fatalf("%s: operational cost %v != %v", label, got.OperationalCost, want.OperationalCost)
	}
	if math.Float64bits(got.SelectionCost) != math.Float64bits(want.SelectionCost) {
		t.Fatalf("%s: selection cost %v != %v", label, got.SelectionCost, want.SelectionCost)
	}
	if len(got.Servers) != len(want.Servers) {
		t.Fatalf("%s: servers %v != %v", label, got.Servers, want.Servers)
	}
	for i := range got.Servers {
		if got.Servers[i] != want.Servers[i] {
			t.Fatalf("%s: servers %v != %v", label, got.Servers, want.Servers)
		}
	}
	gh, wh := got.Tree.Hops(), want.Tree.Hops()
	if len(gh) != len(wh) {
		t.Fatalf("%s: hop count %d != %d", label, len(gh), len(wh))
	}
	for i := range gh {
		if gh[i] != wh[i] {
			t.Fatalf("%s: hop %d: %+v != %+v", label, i, gh[i], wh[i])
		}
	}
}

// TestApproMultiPruningByteIdentical runs the subset sweep with and
// without branch-and-bound pruning and the dominated-subset skip (one
// hook turns both off) over a spread of topologies, K values and worker
// counts, demanding identical solutions (or identical errors) — and
// that the skip did fire on the grid.
func TestApproMultiPruningByteIdentical(t *testing.T) {
	if disableSubsetPruning {
		t.Fatal("pruning globally disabled")
	}
	nets := []*sdn.Network{testNetwork(t, 40, 3), geantNetwork(t, 5)}
	skipped := 0
	for ni, nw := range nets {
		for seed := int64(0); seed < 8; seed++ {
			req := testRequest(t, nw, 300+seed)
			for _, k := range []int{1, 2, 3} {
				if fx := newSweepFixture(t, nw, req, true, k); fx != nil {
					var s evalScratch
					fx.ev.prepare(&s)
					for _, c := range fx.cands {
						if c.rooted {
							continue
						}
						if _, _, _, err := fx.ev.steiner(c.servers, fx.omega, &s); errors.Is(err, errDominated) {
							skipped++
						}
					}
				}
				for _, workers := range []int{1, 4} {
					opts := Options{K: k, Capacitated: true, Workers: workers}
					pruned, perr := ApproMulti(nw, req, opts)
					disableSubsetPruning = true
					plain, serr := ApproMulti(nw, req, opts)
					disableSubsetPruning = false
					if (perr == nil) != (serr == nil) {
						t.Fatalf("net %d seed %d K=%d w=%d: err mismatch: %v vs %v",
							ni, seed, k, workers, perr, serr)
					}
					if perr != nil {
						if perr.Error() != serr.Error() {
							t.Fatalf("net %d seed %d: error text %q != %q", ni, seed, perr, serr)
						}
						continue
					}
					sameSolution(t, pruned, plain, "pruned vs plain")
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("dominated-subset skip never fired on the grid")
	}
}

// TestApproMultiPruningDelayBound checks the pruning does not disturb
// the delay-violation classification: with a hop bound tight enough to
// reject everything, pruned and unpruned sweeps must both report
// ErrDelayBound with identical text.
func TestApproMultiPruningDelayBound(t *testing.T) {
	nw := testNetwork(t, 40, 5)
	req := testRequest(t, nw, 11)
	opts := Options{K: 2, MaxDeliveryHops: 1}
	_, perr := ApproMulti(nw, req, opts)
	disableSubsetPruning = true
	_, serr := ApproMulti(nw, req, opts)
	disableSubsetPruning = false
	if (perr == nil) != (serr == nil) {
		t.Fatalf("err mismatch: %v vs %v", perr, serr)
	}
	if perr != nil && perr.Error() != serr.Error() {
		t.Fatalf("error text %q != %q", perr, serr)
	}
}

func geantNetwork(t testing.TB, seed int64) *sdn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw, err := sdn.NewNetwork(topology.GEANT(), sdn.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestFastRejectMatchesFullPlan drives both online planners to every
// cheap-rejection state and asserts FastReject's error text equals the
// full plan's, and that FastReject stays silent whenever the full plan
// admits.
func TestFastRejectMatchesFullPlan(t *testing.T) {
	for _, mode := range []string{"cp", "cpk"} {
		nw := testNetwork(t, 40, 21)
		model := DefaultCostModel(nw.NumNodes())

		plan := func(req *multicast.Request) (*Solution, error) {
			if mode == "cp" {
				p, err := NewCPPlanner(model)
				if err != nil {
					t.Fatal(err)
				}
				return p.Plan(context.Background(), nw, req, nil)
			}
			p, err := NewCPKPlanner(model, 2)
			if err != nil {
				t.Fatal(err)
			}
			return p.Plan(context.Background(), nw, req, nil)
		}
		fast := func(req *multicast.Request) error {
			if mode == "cp" {
				p, err := NewCPPlanner(model)
				if err != nil {
					t.Fatal(err)
				}
				return p.FastReject(nw, req)
			}
			p, err := NewCPKPlanner(model, 2)
			if err != nil {
				t.Fatal(err)
			}
			return p.FastReject(nw, req)
		}

		// Admissible request: FastReject must stay silent.
		req := testRequest(t, nw, 23)
		if _, err := plan(req); err != nil {
			t.Fatalf("%s: fixture request rejected: %v", mode, err)
		}
		if err := fast(req); err != nil {
			t.Fatalf("%s: FastReject fired on admissible request: %v", mode, err)
		}

		// Compute exhaustion: drain every server.
		for _, v := range nw.Servers() {
			if free := nw.ResidualCompute(v); free > 0 {
				if err := nw.Allocate(sdn.Allocation{
					Servers: map[graph.NodeID]float64{v: free},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, perr := plan(req)
		ferr := fast(req)
		if perr == nil || ferr == nil {
			t.Fatalf("%s: exhausted network admitted: plan=%v fast=%v", mode, perr, ferr)
		}
		if perr.Error() != ferr.Error() {
			t.Fatalf("%s: exhaustion text: plan %q, fast %q", mode, perr, ferr)
		}

		// Threshold: enough free compute to host, but every server
		// priced over a near-zero σ_v (half load makes each server's
		// exponential weight strictly positive).
		for _, v := range nw.Servers() {
			if err := nw.Release(sdn.Allocation{
				Servers: map[graph.NodeID]float64{v: nw.ComputeCap(v) / 2},
			}); err != nil {
				t.Fatal(err)
			}
		}
		tight := model
		tight.SigmaV = 1e-12
		var tp interface {
			Planner
			FastRejecter
		}
		var err error
		if mode == "cp" {
			tp, err = NewCPPlanner(tight)
		} else {
			tp, err = NewCPKPlanner(tight, 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		_, perr = tp.Plan(context.Background(), nw, req, nil)
		ferr = tp.FastReject(nw, req)
		if perr == nil || ferr == nil {
			t.Fatalf("%s: zero threshold admitted: plan=%v fast=%v", mode, perr, ferr)
		}
		if perr.Error() != ferr.Error() {
			t.Fatalf("%s: threshold text: plan %q, fast %q", mode, perr, ferr)
		}
	}
}
