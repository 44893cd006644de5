package core

// Pinned planner decisions. Most planners meet equal-cost choices all
// the time: SP counts hops, and the exponential family prices every
// link of an idle substrate the same. Which of several equal-cost trees
// a planner builds then rests on the exact pop order of graph's indexed
// heap and on the order a work graph lists its edges, neither of which
// a distance oracle can see. The digests below were recorded at the
// commit before the inline-key heap and the work-graph template builds
// (d626443), so a kernel change that keeps every distance but breaks
// ties differently fails here, by planner and topology, instead of as a
// drifted record count in some other package's test.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// decisionDigest admits n online requests through a fresh planner of
// the named policy, departing the oldest live session after every
// fourth arrival (so later plans run on patched and re-keyed work
// graphs), and hashes every verdict: the request ID, then either a
// rejection mark or the chosen servers and directed hop list.
func decisionDigest(t *testing.T, policy string, nw *sdn.Network, seed int64, n int) string {
	t.Helper()
	p, err := NewPlanner(policy, PlannerOptions{Nodes: nw.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdmitter(nw, p)
	gen, err := multicast.NewGenerator(nw.NumNodes(), multicast.OnlineGeneratorConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(v int) { _ = binary.Write(h, binary.LittleEndian, int64(v)) } // hash writes never fail
	var live []int
	for i := 0; i < n; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		put(req.ID)
		sol, err := a.Admit(context.Background(), req, nil)
		switch {
		case IsRejection(err):
			put(-1)
		case err != nil:
			t.Fatalf("%s: request %d: %v", policy, req.ID, err)
		default:
			live = append(live, req.ID)
			put(len(sol.Servers))
			for _, v := range sol.Servers {
				put(v)
			}
			for _, hop := range sol.Tree.Hops() {
				put(hop.From)
				put(hop.To)
				put(hop.Edge)
				if hop.Processed {
					put(1)
				} else {
					put(0)
				}
			}
		}
		if i%4 == 3 && len(live) > 0 {
			if _, err := a.Depart(live[0]); err != nil {
				t.Fatalf("%s: depart %d: %v", policy, live[0], err)
			}
			live = live[1:]
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlannerDecisionsPinned replays every registered policy on GÉANT
// and on a Waxman-60 substrate and demands the recorded decisions.
func TestPlannerDecisionsPinned(t *testing.T) {
	geant := func(t *testing.T) *sdn.Network {
		nw, err := sdn.NewNetwork(topology.GEANT(), sdn.DefaultConfig(), rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	waxman := func(t *testing.T) *sdn.Network { return testNetwork(t, 60, 5) }
	want := map[string][2]string{ // policy → {GÉANT, Waxman-60}
		"Appro_Multi_Cap": {
			"5f0669ff688a69adf7b176e32d4624cd897e77f4ef18f07c3f8c4b0a5b5e33c4",
			"40a0cef20ccdef23523bcc747f93cb3a0830dd813b66b9060913525c85e0f7dd",
		},
		"Dist_CP": {
			"63b14822389acb485fff8ac8428fbe051b31f565557d4832e5faa6b87a55b5e3",
			"06b970e69ca67ea8b08335d972cc0a76ae8657a37f61ff0da389d24ff6c87c9c",
		},
		"Online_CP": {
			"5bd2e34a4e5446b64983741ffb6a7089a5e84ce71a8474607f2da3f7510b84f8",
			"1afff8801fdd3231e4ea2a70262e48fd18bc731a93f8bed52ce773308aeacd0f",
		},
		"Online_CPK": {
			"3c6b154a2389e24f00796074d841be1bbff3d796ffd85b331237466f0d58c438",
			"b8c3cfc4daaff92376f062b88f5eb2f5d0f8d6269c05cab90260ec5a15922638",
		},
		"Reconf_CP": {
			"5bd2e34a4e5446b64983741ffb6a7089a5e84ce71a8474607f2da3f7510b84f8",
			"1afff8801fdd3231e4ea2a70262e48fd18bc731a93f8bed52ce773308aeacd0f",
		},
		"SP": {
			"13ac00f1e75e5585b6cc6481448930379b8f2a6811ff24116c4759f80ccbc553",
			"a92c2eefc7272d842baf5228f20583d7a8424ed3e7e554b5d6ae2c71be6a2a64",
		},
		"SP_Static": {
			"d9763cc3b76076c59625e5f35a9545abfdd866129e5fa08a905311499cd91a5b",
			"75df5b472cd193be7a49cebaeec95378f48b4b7669115c49564692fd938d22a8",
		},
	}
	for _, spec := range Planners() {
		exp, ok := want[spec.Name]
		if !ok {
			t.Errorf("policy %s has no recorded digests", spec.Name)
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			if got := decisionDigest(t, spec.Name, geant(t), 11, 120); got != exp[0] {
				t.Errorf("GÉANT digest %s, recorded %s", got, exp[0])
			}
			if got := decisionDigest(t, spec.Name, waxman(t), 12, 120); got != exp[1] {
				t.Errorf("Waxman-60 digest %s, recorded %s", got, exp[1])
			}
		})
	}
}
