package core

// Decision pins under ties for the closure evaluator's planners. The
// pins in decisions_test.go price links and servers from continuous
// ranges, where two closure edges almost never weigh the same, so a
// change to the closure MST's tie-breaking could pass them unnoticed.
// Here every link costs the same, every server costs the same and
// destinations include servers, so equal-weight closure edges are the
// rule: hop-count distances repeat, and a rooted candidate whose root
// is a destination sees the virtual-source edge (0, j) and the
// destination edge of the root to j weigh exactly alike. The digests
// were recorded before the reduced-closure Prim and refine's forest
// fast path, and must never be re-recorded to make a kernel change
// pass.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// tieNetwork builds GÉANT, a k = 6 fat-tree or Waxman-100/150 with
// every resource range collapsed to one value: equal link prices,
// equal server prices, equal capacities.
func tieNetwork(t testing.TB, name string) *sdn.Network {
	t.Helper()
	var (
		topo *topology.Topology
		err  error
	)
	switch name {
	case "geant":
		topo = topology.GEANT()
	case "fattree":
		topo, err = topology.FatTree(6, 0)
	case "waxman100":
		topo, err = topology.WaxmanDegree(100, topology.DefaultAvgDegree, 0.14, 2)
	case "waxman150":
		topo, err = topology.WaxmanDegree(150, topology.DefaultAvgDegree, 0.14, 3)
	default:
		t.Fatalf("unknown tie topology %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := sdn.Config{
		BandwidthCapRangeMbps: [2]float64{1000, 1000},
		ComputeCapRangeMHz:    [2]float64{8000, 8000},
		LinkUnitCost:          [2]float64{1, 1},
		ServerUnitCost:        [2]float64{0.3, 0.3},
	}
	nw, err := sdn.NewNetwork(topo, cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// tieRequests draws n requests over nw and adds up to two servers
// other than the source to each destination set.
func tieRequests(t testing.TB, nw *sdn.Network, seed int64, n int) []*multicast.Request {
	t.Helper()
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.DefaultGeneratorConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	srv := nw.Servers()
	reqs := make([]*multicast.Request, 0, n)
	for i := 0; i < n; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		for added, tries := 0, 0; added < 2 && tries < 4; tries++ {
			v := srv[rng.Intn(len(srv))]
			dup := v == req.Source
			for _, d := range req.Destinations {
				dup = dup || d == v
			}
			if !dup {
				req.Destinations = append(req.Destinations, v)
				added++
			}
		}
		sort.Ints(req.Destinations)
		reqs = append(reqs, req)
	}
	return reqs
}

// putSolution hashes one verdict: a rejection mark, or the servers,
// the hop list in emitted order and both cost bit patterns.
func putSolution(h hash.Hash, sol *Solution) {
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) } // hash writes never fail
	if sol == nil {
		put(-1)
		return
	}
	put(int64(len(sol.Servers)))
	for _, v := range sol.Servers {
		put(int64(v))
	}
	for _, hop := range sol.Tree.Hops() {
		put(int64(hop.From))
		put(int64(hop.To))
		put(int64(hop.Edge))
		if hop.Processed {
			put(1)
		} else {
			put(0)
		}
	}
	put(int64(math.Float64bits(sol.OperationalCost)))
	put(int64(math.Float64bits(sol.SelectionCost)))
}

// offlineTieDigest solves every request on the idle network.
func offlineTieDigest(t *testing.T, reqs []*multicast.Request, solve func(*multicast.Request) (*Solution, error)) string {
	t.Helper()
	h := sha256.New()
	for _, req := range reqs {
		sol, err := solve(req)
		if err != nil {
			t.Fatalf("request %d: %v", req.ID, err)
		}
		putSolution(h, sol)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// onlineTieDigest admits the requests through a fresh planner of the
// named policy, departing the oldest live session after every fourth
// arrival.
func onlineTieDigest(t *testing.T, policy string, nw *sdn.Network, reqs []*multicast.Request) string {
	t.Helper()
	p, err := NewPlanner(policy, PlannerOptions{Nodes: nw.NumNodes(), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdmitter(nw, p)
	h := sha256.New()
	var live []int
	for i, req := range reqs {
		sol, err := a.Admit(context.Background(), req, nil)
		switch {
		case IsRejection(err):
			sol = nil
		case err != nil:
			t.Fatalf("%s: request %d: %v", policy, req.ID, err)
		default:
			live = append(live, req.ID)
		}
		putSolution(h, sol)
		if i%4 == 3 && len(live) > 0 {
			if _, err := a.Depart(live[0]); err != nil {
				t.Fatalf("%s: depart %d: %v", policy, live[0], err)
			}
			live = live[1:]
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestClosureDecisionsPinnedUnderTies replays Appro_Multi (K = 1..3 at
// one and two workers), Alg_One_Server, Appro_Multi_Cap and Online_CPK
// on the tie-heavy GÉANT and fat-tree and demands the recorded digests.
func TestClosureDecisionsPinnedUnderTies(t *testing.T) {
	want := map[string][2]string{ // case → {GÉANT, fat-tree}
		"Appro_Multi/K=1": {
			"de0f26c4b78278b228dc72ed0ebf0b95477689c258605d1fcac1d7ec81218707",
			"b972a01bcda7a419bb43c546c48daa34d3fcbdedf1c71df60a5db744a359c35f",
		},
		"Appro_Multi/K=2": {
			"647c5183f4a72ba7404c35fbcd5268b4fd9d2392e20f51bfc9033bd554887c30",
			"2f5ded47344aa7e2c8ec2b2046ad14afd5eed6eb8f95036ab64651952162712d",
		},
		"Appro_Multi/K=3": {
			"647c5183f4a72ba7404c35fbcd5268b4fd9d2392e20f51bfc9033bd554887c30",
			"cc8cc1c857d25f1b7da9bc34310dec6f8ad274d477b5ccf9fd04312abec1d04f",
		},
		"Alg_One_Server": {
			"910c6786cb888cba3e7ed5a5158ea19c30c90ab08f6d18fd7d66c2d3e2784449",
			"e9f92e27b6980cc607ed4419b8e732bbc964096efc8154a04a3cc7f4ad4f22ca",
		},
		"Appro_Multi_Cap": {
			"e3412869a9007089d9f7fbb4f6b87b808a0b2ed05868bd5adc2abcca97ff1824",
			"77dbcb513fad9012d06398ec77ea2a288ca03179b2910a5114f59585f66b1035",
		},
		"Online_CPK/K=3": {
			"6b9534e1e65f2a5f4f3723e67742f5a59fc52ef505285d092ff1a273abc7428b",
			"6ccca503d28a5fdae6f1e95dca4e8037f6d236a4a2935a156a7fc551167afda4",
		},
	}
	for ni, name := range []string{"geant", "fattree"} {
		reqs := tieRequests(t, tieNetwork(t, name), 31, 60)
		check := func(label, got string) {
			t.Helper()
			if exp := want[label][ni]; got != exp {
				t.Errorf("%s on %s: digest %s, recorded %s", label, name, got, exp)
			}
		}
		for k := 1; k <= 3; k++ {
			for _, workers := range []int{1, 2} {
				nw := tieNetwork(t, name)
				check(fmt.Sprintf("Appro_Multi/K=%d", k), offlineTieDigest(t, reqs, func(req *multicast.Request) (*Solution, error) {
					return ApproMulti(nw, req, Options{K: k, Workers: workers})
				}))
			}
		}
		nw := tieNetwork(t, name)
		check("Alg_One_Server", offlineTieDigest(t, reqs, func(req *multicast.Request) (*Solution, error) {
			return AlgOneServer(nw, req, false)
		}))
		check("Appro_Multi_Cap", onlineTieDigest(t, "Appro_Multi_Cap", tieNetwork(t, name), reqs))
		check("Online_CPK/K=3", onlineTieDigest(t, "Online_CPK", tieNetwork(t, name), reqs))
	}
}

// sweepTieDigest admits the requests through a fresh planner of the
// named policy, departing the oldest live session whenever more than
// maxLive are held, and hashes every verdict with each rejection's text.
// It also returns the number of rejections.
func sweepTieDigest(t *testing.T, policy string, nw *sdn.Network, reqs []*multicast.Request, maxLive int) (string, int) {
	t.Helper()
	p, err := NewPlanner(policy, PlannerOptions{Nodes: nw.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdmitter(nw, p)
	h := sha256.New()
	var live []int
	rejected := 0
	for _, req := range reqs {
		sol, err := a.Admit(context.Background(), req, nil)
		switch {
		case IsRejection(err):
			sol = nil
			rejected++
			h.Write([]byte(err.Error()))
		case err != nil:
			t.Fatalf("%s: request %d: %v", policy, req.ID, err)
		default:
			live = append(live, req.ID)
		}
		putSolution(h, sol)
		if len(live) > maxLive {
			if _, err := a.Depart(live[0]); err != nil {
				t.Fatalf("%s: depart %d: %v", policy, live[0], err)
			}
			live = live[1:]
		}
	}
	return hex.EncodeToString(h.Sum(nil)), rejected
}

// TestSweepPlannersPinnedUnderTies replays Online_CP and Dist_CP over
// seeded admit→depart histories on the tie-heavy GÉANT, fat-tree and
// Waxman-100 and demands the recorded digests of servers, hops, cost
// bits and rejection texts. Both planners price every candidate server
// with a Steiner tree over a terminal set that is fixed for the whole
// plan; here equal-weight closure edges are the rule, so any change to
// how those trees break ties shows. The digests were recorded before
// the per-plan Steiner sweep existed and must never be re-recorded to
// make a kernel change pass.
func TestSweepPlannersPinnedUnderTies(t *testing.T) {
	want := map[string]string{ // policy/topology/seed → digest
		"Online_CP/geant/31":     "e66ab78efe31e1ca8325305650f3202bfc6ac917ff71e4ed4ec0b7a0cf108d08",
		"Dist_CP/geant/31":       "0d834eecf0f85416df18e2e6d9600f40d3ebc4b7c339a5aa4361e0731805e1c0",
		"Online_CP/geant/47":     "1d5678abd338f82dc6502112a9dc9a4079b42ea90aa0c314d980b7083744dba7",
		"Dist_CP/geant/47":       "32550fea7a759f90cdf2e34f1e13b615ae74a30a109facd7d6b30282921c006f",
		"Online_CP/fattree/31":   "0337b9842747c3f43e837ab48fa66ffe2ec9c741dd94b57467261b711e46db61",
		"Dist_CP/fattree/31":     "2eb7e4a68ab91a51dcb055e30fc322a127b6ff9c85856c9ef632866a8f9603e3",
		"Online_CP/fattree/47":   "946702661ad7acdf90de20fbf64997b2a12892fb8ee450043887f5e11056a8a2",
		"Dist_CP/fattree/47":     "594f8e0183478dcc5ca3974c78f89e24fbf05f4b9a9234665ff2b54fc90b16b9",
		"Online_CP/waxman100/31": "0b174db47763d8a98ecda49a9cbd4e1a9e73909fcf50cb8d5d2fa29b719f04d1",
		"Dist_CP/waxman100/31":   "47c02eaaab92f4756f90e95901e96af0645dc79e5f73863b63a15dc4948212c8",
		"Online_CP/waxman100/47": "f5a7ba3aa844460c1edacf160c4da07f4b47eb103e3ed69750f644799d8a9a7d",
		"Dist_CP/waxman100/47":   "5764e8d6493ef3bea9007d4342bb534c3a9b8bbb855a265019ca405e642adcf6",
	}
	rejected := 0
	for _, name := range []string{"geant", "fattree", "waxman100"} {
		for _, seed := range []int64{31, 47} {
			reqs := tieRequests(t, tieNetwork(t, name), seed, 150)
			for _, policy := range []string{"Online_CP", "Dist_CP"} {
				label := fmt.Sprintf("%s/%s/%d", policy, name, seed)
				got, r := sweepTieDigest(t, policy, tieNetwork(t, name), reqs, 10)
				rejected += r
				if exp := want[label]; got != exp {
					t.Errorf("%s: digest %s, recorded %s", label, got, exp)
				}
			}
		}
	}
	if rejected == 0 {
		t.Error("no history reached a rejection")
	}
	t.Logf("%d rejections", rejected)
}
