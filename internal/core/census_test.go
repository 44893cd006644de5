package core

// The tree-reuse census of two callers on a sequential engine. Such an
// engine plans each admission on the live network inside its writer
// lock, so two callers that each admit and depart interleave into one
// sequence: an admission planned on the idle network, one planned while
// the other caller's session is still held, then both departures. The
// replay below is that sequence through one Admitter, without the
// scheduler, beside the one-caller sequence where every plan sees the
// idle network.

import (
	"context"
	"math/rand"
	"testing"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// reuseCensus counts the outcomes of tree-reuse attempts: certified
// reuses, attempts that did not certify, and seeded roots sent straight
// to Dijkstra after an abandonment on the same cache.
type reuseCensus struct{ certified, abandoned, skipped uint64 }

func (r reuseCensus) plus(o reuseCensus) reuseCensus {
	return reuseCensus{r.certified + o.certified, r.abandoned + o.abandoned, r.skipped + o.skipped}
}

func (r reuseCensus) minus(o reuseCensus) reuseCensus {
	return reuseCensus{r.certified - o.certified, r.abandoned - o.abandoned, r.skipped - o.skipped}
}

// census sums the reuse outcomes of every distinct shortest-path cache
// c holds.
func (c *workGraphCache) census() reuseCensus {
	c.mu.Lock()
	defer c.mu.Unlock()
	var r reuseCensus
	seen := make(map[*spCache]bool)
	for n := c.mru; n != nil; n = n.older {
		if !seen[n.sp] {
			seen[n.sp] = true
			_, reuses := n.sp.treeCounts()
			r = r.plus(reuseCensus{reuses, n.sp.abandoned.Load(), n.sp.skipped.Load()})
		}
	}
	return r
}

// TestTreeReuseCensusTwoCallers replays 400 requests of the seed-7
// online stream through Online_CP on the Waxman-100 network of
// BenchmarkEngineThroughput, once as one caller (admit, depart) and
// once as two callers on a sequential engine, and logs each shape's
// census by the state its plans saw. The one-caller shape must certify
// at least 99% of its reuse attempts; DESIGN.md §8.2 records what the
// two-caller shape loses.
func TestTreeReuseCensusTwoCallers(t *testing.T) {
	topo, err := topology.WaxmanDegree(100, topology.DefaultAvgDegree, 0.14, 42)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := multicast.NewGenerator(base.NumNodes(), multicast.OnlineGeneratorConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.Batch(400)
	if err != nil {
		t.Fatal(err)
	}
	// replay returns the census of the plans made on the idle network
	// and of those made while another session was held.
	replay := func(callers int) (idle, held reuseCensus) {
		p, err := NewCPPlanner(DefaultCostModel(base.NumNodes()))
		if err != nil {
			t.Fatal(err)
		}
		a := NewAdmitter(base.Clone(), p)
		var live []int
		for i, req := range reqs {
			before := p.cache.census()
			_, err := a.Admit(context.Background(), req, nil)
			d := p.cache.census().minus(before)
			if len(live) == 0 {
				idle = idle.plus(d)
			} else {
				held = held.plus(d)
			}
			if err == nil {
				live = append(live, req.ID)
			} else if !IsRejection(err) {
				t.Fatal(err)
			}
			if (i+1)%callers == 0 {
				for _, id := range live {
					if _, err := a.Depart(id); err != nil {
						t.Fatal(err)
					}
				}
				live = live[:0]
			}
		}
		if _, builds := p.cache.stats(); builds > workGraphCacheSize {
			t.Fatalf("%d work graphs built: evicted entries took their counts along", builds)
		}
		return idle, held
	}
	one, _ := replay(1)
	t.Logf("one caller: certified %d, abandoned %d, skipped %d", one.certified, one.abandoned, one.skipped)
	idle, held := replay(2)
	t.Logf("two callers, idle-state plans: certified %d, abandoned %d, skipped %d", idle.certified, idle.abandoned, idle.skipped)
	t.Logf("two callers, held-state plans: certified %d, abandoned %d, skipped %d", held.certified, held.abandoned, held.skipped)
	if attempts := one.certified + one.abandoned; attempts == 0 || float64(one.certified) < 0.99*float64(attempts) {
		t.Fatalf("one caller certified %d of %d reuse attempts, want at least 99%%", one.certified, attempts)
	}
}
