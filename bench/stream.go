package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"nfvmcast/internal/daemon"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
	"nfvmcast/internal/wal"
)

// buildNetwork constructs the workload's seeded substrate the way the
// daemon does for the same Config, so every level of the stack plans on an
// identical network.
func buildNetwork(w *workload) (*sdn.Network, error) {
	var topo *topology.Topology
	switch w.Topology {
	case "geant":
		topo = topology.GEANT()
	case "waxman":
		var err error
		topo, err = topology.WaxmanDegree(w.Nodes, topology.DefaultAvgDegree, 0.14, topoSeed)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown topology %q", w.Topology)
	}
	return sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(topoSeed)))
}

// stream is the generated input of one run: the only thing the program
// under test sees of the seed. Request i carries ID i+1.
type stream struct {
	pool    bool
	reqs    []*multicast.Request
	tenants []string
	submit  [][]byte // pre-marshalled /v1/submit bodies (daemon workloads)
	release [][]byte // pre-marshalled /v1/release bodies
}

// newStream generates capacity requests (or the recycled pool) for w on an
// n-node substrate and, for daemon workloads, marshals their bodies.
func newStream(w *workload, n, capacity int, seed int64) (*stream, error) {
	cfg := multicast.OnlineGeneratorConfig()
	if w.Offline {
		cfg = multicast.DefaultGeneratorConfig()
	}
	gen, err := multicast.NewGenerator(n, cfg, seed)
	if err != nil {
		return nil, err
	}
	s := &stream{pool: w.Pool > 0}
	if s.pool {
		capacity = w.Pool
	}
	if s.reqs, err = gen.Batch(capacity); err != nil {
		return nil, err
	}
	if !w.isDaemon() {
		return s, nil
	}
	s.tenants = make([]string, w.Tenants)
	for t := range s.tenants {
		s.tenants[t] = fmt.Sprintf("tenant-%d", t)
	}
	s.submit = make([][]byte, len(s.reqs))
	s.release = make([][]byte, len(s.reqs))
	for i, req := range s.reqs {
		s.submit[i], err = json.Marshal(daemon.SubmitRequest{Tenant: s.tenant(i), Request: wal.EncodeRequest(req)})
		if err != nil {
			return nil, err
		}
		s.release[i], err = json.Marshal(daemon.ReleaseRequest{ID: req.ID})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// len is how many requests the stream can supply.
func (s *stream) len() int {
	if s.pool {
		return math.MaxInt32
	}
	return len(s.reqs)
}

// request returns request i. A pooled stream hands out a fresh copy under
// a fresh ID, as the CI-gated BenchmarkEngineThroughput does: IDs must be
// unique per live session.
func (s *stream) request(i int) *multicast.Request {
	if !s.pool {
		return s.reqs[i]
	}
	r := *s.reqs[i%len(s.reqs)]
	r.ID = i + 1
	return &r
}

func (s *stream) tenant(i int) string { return s.tenants[i%len(s.tenants)] }
