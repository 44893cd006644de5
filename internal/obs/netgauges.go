package obs

import (
	"math"
	"strconv"

	"nfvmcast/internal/sdn"
)

// SaturationModel carries the exponential cost-model constants needed
// to gauge how close each resource sits to its admission threshold:
// weight w_e = β^{util} − 1 against σ_e for links and w_v = α^{util} − 1
// against σ_v for servers (paper §V.A; core.CostModel holds the same
// constants). The zero value disables the weight-saturation gauges and
// leaves only the raw utilisation ones.
type SaturationModel struct {
	Alpha  float64 // computing-cost base (α > 1)
	Beta   float64 // bandwidth-cost base (β > 1)
	SigmaV float64 // server admission threshold σ_v
	SigmaE float64 // link admission threshold σ_e
}

// enabled reports whether the model can price saturation.
func (m SaturationModel) enabled() bool {
	return m.Alpha > 1 && m.Beta > 1 && m.SigmaV > 0 && m.SigmaE > 0
}

// NetworkGauges publishes per-link and per-server residual state of
// one sdn.Network into a Registry: utilisation (1 − residual/capacity)
// for every link and server, exponential-weight saturation (w/σ, the
// fraction of the admission threshold consumed) when a SaturationModel
// is set, and aggregate max/mean gauges.
//
// Collect READS the network, so run it where network reads are safe —
// inside Engine.SnapshotState, from the engine's exposition refresh, or on a
// quiesced network. Instruments are resolved once at construction;
// Collect itself is allocation-free apart from first-use registration.
type NetworkGauges struct {
	model SaturationModel

	linkUtil []*Gauge
	linkSat  []*Gauge
	srvUtil  map[int]*Gauge
	srvSat   map[int]*Gauge

	linkUtilMax  *Gauge
	linkUtilMean *Gauge
	srvUtilMax   *Gauge
	srvUtilMean  *Gauge
	linksDown    *Gauge
	serversDown  *Gauge
}

// NewNetworkGauges registers gauges for every link and server of nw on
// reg. The network defines the series set (link and server IDs);
// Collect may then be called with nw or any clone of it.
func NewNetworkGauges(reg *Registry, nw *sdn.Network, model SaturationModel) *NetworkGauges {
	g := &NetworkGauges{
		model:    model,
		linkUtil: make([]*Gauge, nw.NumEdges()),
		srvUtil:  make(map[int]*Gauge, len(nw.Servers())),
		linkUtilMax: reg.Gauge("nfv_link_utilization_max",
			"Highest link utilisation across the network."),
		linkUtilMean: reg.Gauge("nfv_link_utilization_mean",
			"Mean link utilisation across the network."),
		srvUtilMax: reg.Gauge("nfv_server_utilization_max",
			"Highest server utilisation across the network."),
		srvUtilMean: reg.Gauge("nfv_server_utilization_mean",
			"Mean server utilisation across the network."),
		linksDown: reg.Gauge("nfv_links_down",
			"Links currently failed (failure injection)."),
		serversDown: reg.Gauge("nfv_servers_down",
			"Servers currently failed (failure injection)."),
	}
	for e := 0; e < nw.NumEdges(); e++ {
		g.linkUtil[e] = reg.Gauge("nfv_link_utilization",
			"Per-link utilisation, 1 - residual/capacity.", L("link", strconv.Itoa(e)))
	}
	for _, v := range nw.Servers() {
		g.srvUtil[v] = reg.Gauge("nfv_server_utilization",
			"Per-server utilisation, 1 - residual/capacity.", L("server", strconv.Itoa(v)))
	}
	if model.enabled() {
		g.linkSat = make([]*Gauge, nw.NumEdges())
		g.srvSat = make(map[int]*Gauge, len(g.srvUtil))
		for e := 0; e < nw.NumEdges(); e++ {
			g.linkSat[e] = reg.Gauge("nfv_link_weight_saturation",
				"Per-link exponential weight over threshold, (beta^util - 1) / sigma_e.",
				L("link", strconv.Itoa(e)))
		}
		for v := range g.srvUtil {
			g.srvSat[v] = reg.Gauge("nfv_server_weight_saturation",
				"Per-server exponential weight over threshold, (alpha^util - 1) / sigma_v.",
				L("server", strconv.Itoa(v)))
		}
	}
	return g
}

// Collect reads nw's residual state into the gauges. nw must have the
// same link/server identity as the network the gauges were built for.
func (g *NetworkGauges) Collect(nw *sdn.Network) {
	var (
		maxU, sumU float64
		down       int
	)
	m := nw.NumEdges()
	if m > len(g.linkUtil) {
		m = len(g.linkUtil)
	}
	for e := 0; e < m; e++ {
		u := nw.LinkUtilization(e)
		g.linkUtil[e].Set(u)
		if g.linkSat != nil {
			g.linkSat[e].Set((math.Pow(g.model.Beta, u) - 1) / g.model.SigmaE)
		}
		if u > maxU {
			maxU = u
		}
		sumU += u
		if !nw.LinkUp(e) {
			down++
		}
	}
	g.linkUtilMax.Set(maxU)
	if m > 0 {
		g.linkUtilMean.Set(sumU / float64(m))
	}
	g.linksDown.Set(float64(down))

	maxU, sumU, down = 0, 0, 0
	count := 0
	for v, gauge := range g.srvUtil {
		u := nw.ServerUtilization(v)
		gauge.Set(u)
		if g.srvSat != nil {
			g.srvSat[v].Set((math.Pow(g.model.Alpha, u) - 1) / g.model.SigmaV)
		}
		if u > maxU {
			maxU = u
		}
		sumU += u
		count++
		if !nw.ServerUp(v) {
			down++
		}
	}
	g.srvUtilMax.Set(maxU)
	if count > 0 {
		g.srvUtilMean.Set(sumU / float64(count))
	}
	g.serversDown.Set(float64(down))
}
