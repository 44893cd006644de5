package core

import (
	"fmt"
	"math"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/sdn"
)

// CostModel is the exponential resource-pricing model of paper §V.A:
// the cost of a resource grows exponentially with its utilisation so
// that loaded links and servers repel new requests,
//
//	c_v(k) = C_v (α^{1 − C_v(k)/C_v} − 1)
//	c_e(k) = B_e (β^{1 − B_e(k)/B_e} − 1)
//
// with normalised weights w_v = c_v/C_v and w_e = c_e/B_e used by the
// admission thresholds σ_v and σ_e.
type CostModel struct {
	// Alpha is the computing-cost base (α > 1; the analysis sets 2|V|).
	Alpha float64
	// Beta is the bandwidth-cost base (β > 1; the analysis sets 2|V|).
	Beta float64
	// SigmaV is the server admission threshold σ_v (|V| − 1).
	SigmaV float64
	// SigmaE is the tree-weight admission threshold σ_e (|V| − 1).
	SigmaE float64
}

// DefaultCostModel returns the parameterisation the competitive-ratio
// analysis requires for an n-node network: α = β = 2n and
// σ_v = σ_e = n − 1 (paper §V, Lemma 2 and §VI.A).
func DefaultCostModel(n int) CostModel {
	return CostModel{
		Alpha:  2 * float64(n),
		Beta:   2 * float64(n),
		SigmaV: float64(n - 1),
		SigmaE: float64(n - 1),
	}
}

// Validate checks the model's constants.
func (m CostModel) Validate() error {
	if m.Alpha <= 1 || m.Beta <= 1 {
		return fmt.Errorf("core: cost model needs α, β > 1 (got %v, %v)", m.Alpha, m.Beta)
	}
	if m.SigmaV <= 0 || m.SigmaE <= 0 {
		return fmt.Errorf("core: cost model needs σ_v, σ_e > 0 (got %v, %v)", m.SigmaV, m.SigmaE)
	}
	return nil
}

// LinkWeight returns the normalised bandwidth weight
// w_e(k) = β^{1 − B_e(k)/B_e} − 1 for the link's current residual.
func (m CostModel) LinkWeight(nw *sdn.Network, e graph.EdgeID) float64 {
	util := 1 - nw.ResidualBandwidth(e)/nw.BandwidthCap(e)
	return math.Pow(m.Beta, util) - 1
}

// LinkCost returns the absolute bandwidth cost c_e(k) = B_e * w_e(k).
func (m CostModel) LinkCost(nw *sdn.Network, e graph.EdgeID) float64 {
	return nw.BandwidthCap(e) * m.LinkWeight(nw, e)
}

// ServerWeight returns the normalised computing weight
// w_v(k) = α^{1 − C_v(k)/C_v} − 1 for the server's current residual.
func (m CostModel) ServerWeight(nw *sdn.Network, v graph.NodeID) float64 {
	util := 1 - nw.ResidualCompute(v)/nw.ComputeCap(v)
	return math.Pow(m.Alpha, util) - 1
}

// ServerCost returns the absolute computing cost c_v(k) = C_v * w_v(k).
func (m CostModel) ServerCost(nw *sdn.Network, v graph.NodeID) float64 {
	return nw.ComputeCap(v) * m.ServerWeight(nw, v)
}

// priceMemo holds one plan's exponential weights, each computed by the
// CostModel on its first read: w_e(k) per link and w_v(k) per node. A
// plan reads one residual state throughout, so a memoized
// weight is the float the model would return again, and a cost built
// from it as LinkCost and ServerCost build theirs has the same bits.
// Generation stamps invalidate the whole memo in O(1) per plan.
type priceMemo struct {
	model CostModel
	nw    *sdn.Network

	gen     uint32
	edgeGen []uint32 // link -> generation edgeW was filled
	edgeW   []float64
	nodeGen []uint32 // node -> generation nodeW was filled
	nodeW   []float64
}

// begin empties the memo for a plan of nw's links and nodes.
func (m *priceMemo) begin(model CostModel, nw *sdn.Network) {
	m.model, m.nw = model, nw
	if ne := nw.NumEdges(); cap(m.edgeGen) < ne {
		m.edgeGen = make([]uint32, ne)
		m.edgeW = make([]float64, ne)
	} else {
		m.edgeGen = m.edgeGen[:ne]
		m.edgeW = m.edgeW[:ne]
	}
	if nn := nw.NumNodes(); cap(m.nodeGen) < nn {
		m.nodeGen = make([]uint32, nn)
		m.nodeW = make([]float64, nn)
	} else {
		m.nodeGen = m.nodeGen[:nn]
		m.nodeW = m.nodeW[:nn]
	}
	m.gen++
	if m.gen == 0 { // wrapped: clear so stale stamps cannot alias
		clear(m.edgeGen)
		clear(m.nodeGen)
		m.gen = 1
	}
}

// linkWeight is CostModel.LinkWeight of link e.
func (m *priceMemo) linkWeight(e graph.EdgeID) float64 {
	if m.edgeGen[e] != m.gen {
		m.edgeGen[e] = m.gen
		m.edgeW[e] = m.model.LinkWeight(m.nw, e)
	}
	return m.edgeW[e]
}

// linkCost is CostModel.LinkCost of link e.
func (m *priceMemo) linkCost(e graph.EdgeID) float64 {
	return m.nw.BandwidthCap(e) * m.linkWeight(e)
}

// serverWeight is CostModel.ServerWeight of node v.
func (m *priceMemo) serverWeight(v graph.NodeID) float64 {
	if m.nodeGen[v] != m.gen {
		m.nodeGen[v] = m.gen
		m.nodeW[v] = m.model.ServerWeight(m.nw, v)
	}
	return m.nodeW[v]
}

// serverCost is CostModel.ServerCost of node v.
func (m *priceMemo) serverCost(v graph.NodeID) float64 {
	return m.nw.ComputeCap(v) * m.serverWeight(v)
}
