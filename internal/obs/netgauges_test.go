package obs

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

func testNetwork(t testing.TB, n int, seed int64) *sdn.Network {
	t.Helper()
	topo, err := topology.WaxmanDegree(n, 4, 0.14, seed)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNetworkGaugesFreshNetwork(t *testing.T) {
	nw := testNetwork(t, 30, 7)
	reg := NewRegistry()
	g := NewNetworkGauges(reg, nw, SaturationModel{})
	g.Collect(nw)

	gv := reg.GaugeValues()
	// A fresh network is fully free: every utilisation gauge reads 0.
	for e := 0; e < nw.NumEdges(); e++ {
		name := `nfv_link_utilization{link="` + strconv.Itoa(e) + `"}`
		if v, ok := gv[name]; !ok || v != 0 {
			t.Fatalf("%s = %v, want registered 0", name, v)
		}
	}
	for _, v := range nw.Servers() {
		name := `nfv_server_utilization{server="` + strconv.Itoa(v) + `"}`
		if u, ok := gv[name]; !ok || u != 0 {
			t.Fatalf("%s = %v, want registered 0", name, u)
		}
	}
	for _, agg := range []string{
		"nfv_link_utilization_max", "nfv_link_utilization_mean",
		"nfv_server_utilization_max", "nfv_server_utilization_mean",
		"nfv_links_down", "nfv_servers_down",
	} {
		if gv[agg] != 0 {
			t.Fatalf("%s = %v, want 0", agg, gv[agg])
		}
	}
	// Zero-valued model: no weight-saturation series registered.
	for name := range gv {
		if name == "nfv_link_weight_saturation" || name == "nfv_server_weight_saturation" {
			t.Fatalf("saturation gauge registered despite disabled model")
		}
	}
}

func TestNetworkGaugesSaturation(t *testing.T) {
	nw := testNetwork(t, 30, 7)
	reg := NewRegistry()
	model := SaturationModel{Alpha: 60, Beta: 60, SigmaV: 29, SigmaE: 29}
	g := NewNetworkGauges(reg, nw, model)

	// Consume half of link 0's bandwidth behind the gauges' back, then
	// collect: utilisation and weight saturation must both move.
	half := nw.BandwidthCap(0) / 2
	if err := nw.Allocate(sdn.Allocation{Links: []sdn.LinkShare{{Edge: 0, Mbps: half}}}); err != nil {
		t.Fatal(err)
	}
	g.Collect(nw)

	gv := reg.GaugeValues()
	if u := gv[`nfv_link_utilization{link="0"}`]; math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("link 0 utilisation = %v, want 0.5", u)
	}
	wantSat := (math.Pow(model.Beta, 0.5) - 1) / model.SigmaE
	if s := gv[`nfv_link_weight_saturation{link="0"}`]; math.Abs(s-wantSat) > 1e-9 {
		t.Fatalf("link 0 saturation = %v, want %v", s, wantSat)
	}
	if gv["nfv_link_utilization_max"] < 0.5-1e-9 {
		t.Fatalf("max utilisation %v < 0.5", gv["nfv_link_utilization_max"])
	}

	// Release and re-collect: gauges return to zero (the invariant the
	// engine-level departure test leans on).
	if err := nw.Release(sdn.Allocation{Links: []sdn.LinkShare{{Edge: 0, Mbps: half}}}); err != nil {
		t.Fatal(err)
	}
	g.Collect(nw)
	gv = reg.GaugeValues()
	if u := gv[`nfv_link_utilization{link="0"}`]; u != 0 {
		t.Fatalf("utilisation after release = %v, want 0", u)
	}
}

func TestNetworkGaugesDownCounts(t *testing.T) {
	nw := testNetwork(t, 30, 7)
	reg := NewRegistry()
	g := NewNetworkGauges(reg, nw, SaturationModel{})
	if err := nw.SetLinkUp(0, false); err != nil {
		t.Fatal(err)
	}
	srv := nw.Servers()[0]
	if err := nw.SetServerUp(srv, false); err != nil {
		t.Fatal(err)
	}
	g.Collect(nw)
	gv := reg.GaugeValues()
	if gv["nfv_links_down"] != 1 || gv["nfv_servers_down"] != 1 {
		t.Fatalf("down counts = %v links, %v servers; want 1, 1",
			gv["nfv_links_down"], gv["nfv_servers_down"])
	}
}
