// GEANT demo: NFV-enabled conferencing on the real pan-European
// research network.
//
// Research institutions schedule multi-site video conferences over
// GÉANT. Every conference is a multicast group whose traffic must pass
// a <Firewall, Proxy> chain hosted on one of the nine NFV server PoPs.
// This example admits a day's worth of conference requests with
// Online_CP, prints where service chains get placed (by city), and
// verifies every admitted conference end to end through the SDN
// controller's packet replay.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"nfvmcast"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	topo := nfvmcast.GEANT()
	rng := rand.New(rand.NewSource(2017))
	nw, err := nfvmcast.NewNetwork(topo, nfvmcast.DefaultNetworkConfig(), rng)
	if err != nil {
		return err
	}
	city := func(v nfvmcast.NodeID) string { return topo.NodeNames[v] }
	serverCities := make([]string, 0, len(nw.Servers()))
	for _, v := range nw.Servers() {
		serverCities = append(serverCities, city(v))
	}
	fmt.Printf("GÉANT: %d PoPs, %d links; NFV servers in %v\n\n",
		nw.NumNodes(), nw.NumEdges(), serverCities)

	// Online_CP behind the admission engine: Admit both decides and
	// allocates; the controller then just installs the returned tree.
	planner, err := nfvmcast.NewCPPlanner(nfvmcast.DefaultCostModel(nw.NumNodes()))
	if err != nil {
		return err
	}
	cp := nfvmcast.NewEngine(nw, planner, nfvmcast.EngineOptions{})
	defer cp.Close()
	ctrl := nfvmcast.NewController(nw)

	gen, err := nfvmcast.NewGenerator(nw.NumNodes(), nfvmcast.OnlineGeneratorConfig(), 99)
	if err != nil {
		return err
	}

	placements := make(map[string]int)
	verified := 0
	const conferences = 150
	for i := 0; i < conferences; i++ {
		req, gerr := gen.Next()
		if gerr != nil {
			return gerr
		}
		sol, aerr := cp.Admit(req)
		if aerr != nil {
			if nfvmcast.IsRejection(aerr) {
				continue
			}
			return aerr
		}
		placements[city(sol.Servers[0])]++
		if err := ctrl.Install(req, sol.Tree); err != nil {
			return err
		}
		if err := ctrl.VerifyDelivery(req.ID); err != nil {
			return fmt.Errorf("conference %d failed verification: %w", req.ID, err)
		}
		verified++
	}

	fmt.Printf("admitted %d / %d conferences (%d rejected), all %d verified by packet replay\n\n",
		cp.AdmittedCount(), conferences, cp.RejectedCount(), verified)

	fmt.Println("service-chain placements by PoP:")
	type pc struct {
		city  string
		count int
	}
	var byCity []pc
	for c, n := range placements {
		byCity = append(byCity, pc{c, n})
	}
	sort.Slice(byCity, func(i, j int) bool {
		if byCity[i].count != byCity[j].count {
			return byCity[i].count > byCity[j].count
		}
		return byCity[i].city < byCity[j].city
	})
	for _, p := range byCity {
		fmt.Printf("  %-12s %3d conferences\n", p.city, p.count)
	}

	fmt.Printf("\ncontroller holds %d forwarding rules across %d PoPs\n",
		ctrl.TotalRules(), nw.NumNodes())
	var maxUtil float64
	var hot nfvmcast.EdgeID
	for e := 0; e < nw.NumEdges(); e++ {
		if u := nw.LinkUtilization(e); u > maxUtil {
			maxUtil, hot = u, e
		}
	}
	he := nw.Graph().Edge(hot)
	fmt.Printf("hottest link: %s—%s at %.0f%% utilisation\n",
		city(he.U), city(he.V), 100*maxUtil)
	return nil
}
