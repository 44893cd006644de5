// Videostream: online admission of live-streaming multicast groups.
//
// A streaming provider receives channel-setup requests one by one —
// each a multicast group (origin server → viewer edge sites) whose
// traffic must pass <NAT, Firewall> before distribution. The provider
// cannot see future requests and wants to admit as many channels as
// possible, so it runs the paper's Online_CP admission algorithm and
// compares it against shortest-path heuristics on replicas of the
// same network receiving the identical arrival sequence.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"nfvmcast"
)

const (
	networkSize = 100
	channels    = 400
	seed        = 7
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// buildNetwork returns one replica of the provider's backbone; equal
// seeds yield identical replicas so the three policies face the same
// conditions.
func buildNetwork() (*nfvmcast.Network, error) {
	topo, err := nfvmcast.WaxmanDegree(networkSize, nfvmcast.DefaultAvgDegree, 0.14, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	return nfvmcast.NewNetwork(topo, nfvmcast.DefaultNetworkConfig(), rng)
}

// channelRequest models one live channel: a random origin, 3-10 viewer
// sites, 80-250 Mbps mezzanine bitrate, NAT+Firewall chain.
func channelRequest(id int, rng *rand.Rand) *nfvmcast.Request {
	perm := rng.Perm(networkSize)
	viewers := 3 + rng.Intn(8)
	dests := make([]nfvmcast.NodeID, viewers)
	copy(dests, perm[1:1+viewers])
	return &nfvmcast.Request{
		ID:            id,
		Source:        perm[0],
		Destinations:  dests,
		BandwidthMbps: 80 + rng.Float64()*170,
		Chain:         nfvmcast.MustChain(nfvmcast.NAT, nfvmcast.Firewall),
	}
}

func run() error {
	nwCP, err := buildNetwork()
	if err != nil {
		return err
	}
	nwSP, err := buildNetwork()
	if err != nil {
		return err
	}
	nwStatic, err := buildNetwork()
	if err != nil {
		return err
	}
	// Each policy runs behind an admission engine owning its replica.
	// Sequential mode (zero workers) keeps decisions identical to a
	// core admitter driving the same planner; a provider ingesting concurrent channel-setup
	// calls would set EngineOptions.Workers to n instead.
	cpPlanner, err := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(networkSize))
	if err != nil {
		return err
	}
	cp := nfvmcast.NewEngine(nwCP, cpPlanner, nfvmcast.EngineOptions{})
	defer cp.Close()
	sp := nfvmcast.NewEngine(nwSP, nfvmcast.NewSPPlanner(), nfvmcast.EngineOptions{})
	defer sp.Close()
	static := nfvmcast.NewEngine(nwStatic, nfvmcast.NewSPStaticPlanner(), nfvmcast.EngineOptions{})
	defer static.Close()

	rng := rand.New(rand.NewSource(seed + 2))
	fmt.Printf("admitting %d channel requests on a %d-switch backbone\n\n",
		channels, networkSize)
	fmt.Printf("%-10s %12s %14s %16s\n", "arrivals", "Online_CP", "SP(adaptive)", "SP(static)")
	for k := 1; k <= channels; k++ {
		req := channelRequest(k, rng)
		// Each policy decides independently on its own replica.
		if _, err := cp.Admit(req.Clone()); err != nil && !nfvmcast.IsRejection(err) {
			return err
		}
		if _, err := sp.Admit(req.Clone()); err != nil && !nfvmcast.IsRejection(err) {
			return err
		}
		if _, err := static.Admit(req.Clone()); err != nil && !nfvmcast.IsRejection(err) {
			return err
		}
		if k%50 == 0 {
			fmt.Printf("%-10d %12d %14d %16d\n",
				k, cp.AdmittedCount(), sp.AdmittedCount(), static.AdmittedCount())
		}
	}

	fmt.Printf("\nfinal: Online_CP served %d channels; adaptive SP %d; static SP %d\n",
		cp.AdmittedCount(), sp.AdmittedCount(), static.AdmittedCount())
	fmt.Printf("Online_CP carried %.1f%% more channels than static shortest-path routing\n",
		100*(float64(cp.AdmittedCount())/float64(static.AdmittedCount())-1))
	return nil
}
