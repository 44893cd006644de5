package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// benchEngineThroughput measures admitted-requests-per-second through
// the engine on the Fig. 8 workload (Waxman n=100, online generator
// arrivals) as the worker count scales. Sessions depart as soon as
// they are admitted so the network stays in the sparse regime where
// planning (not rejection) dominates — the throughput the engine
// exists to scale. b.N requests are drawn round-robin from a
// pre-generated pool by concurrent submitters. newObs builds the
// per-run observability (nil disables instrumentation).
func benchEngineThroughput(b *testing.B, newObs func() *obs.AdmissionObs) {
	topo, err := topology.WaxmanDegree(100, topology.DefaultAvgDegree, 0.14, 42)
	if err != nil {
		b.Fatal(err)
	}
	const poolSize = 512
	base, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := multicast.NewGenerator(base.NumNodes(), multicast.OnlineGeneratorConfig(), 55)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := gen.Batch(poolSize)
	if err != nil {
		b.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			planner, perr := core.NewCPPlanner(core.DefaultCostModel(base.NumNodes()))
			if perr != nil {
				b.Fatal(perr)
			}
			eng := New(base.Clone(), planner, Options{Workers: workers, Obs: newObs()})
			defer eng.Close()

			var next int64
			var admitted int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := atomic.AddInt64(&next, 1) - 1
					req := reqs[i%poolSize]
					// Clone per submission: request IDs must be unique
					// per live session.
					r := *req
					r.ID = int(i) + 1
					if _, aerr := eng.Admit(&r); aerr == nil {
						atomic.AddInt64(&admitted, 1)
						_, _ = eng.Depart(r.ID)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(admitted)/b.Elapsed().Seconds(), "admits/sec")
		})
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	benchEngineThroughput(b, func() *obs.AdmissionObs { return nil })
}

// BenchmarkEngineThroughputObs is the same workload with the metrics
// layer attached (counters and gauges live, latency sampling off, as in
// the scenario harness and the figure runs), pinning the
// instrumentation overhead the observability layer promises to keep
// under 3%.
func BenchmarkEngineThroughputObs(b *testing.B) {
	benchEngineThroughput(b, func() *obs.AdmissionObs {
		return obs.NewAdmissionObs(obs.NewRegistry(), "Online_CP", obs.AdmissionObsOptions{})
	})
}

// BenchmarkEngineThroughputObsSampled additionally samples plan/commit/
// clone latencies into histograms — the mode the daemon and
// `nfvmcast -metrics-addr` run, which reads the clock on hot paths.
func BenchmarkEngineThroughputObsSampled(b *testing.B) {
	benchEngineThroughput(b, func() *obs.AdmissionObs {
		return obs.NewAdmissionObs(obs.NewRegistry(), "Online_CP", obs.AdmissionObsOptions{SampleLatency: true})
	})
}
