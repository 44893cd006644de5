// Package multicast models NFV-enabled multicast requests
// r_k = (s_k, D_k; b_k, SC_k), the pseudo-multicast trees that realise
// them (routing graphs in which traffic may back-track along tree
// paths after NFV processing), deterministic workload generators, and
// a delivery validator that checks every destination receives traffic
// that traversed the service chain.
package multicast

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/nfv"
)

// Request is one NFV-enabled multicast request r_k.
type Request struct {
	// ID identifies the request within a workload (k in the paper).
	ID int
	// Source is the multicast source s_k.
	Source graph.NodeID
	// Destinations is the terminal set D_k (non-empty, source excluded).
	Destinations []graph.NodeID
	// BandwidthMbps is the demanded bandwidth b_k on every link the
	// request's traffic traverses.
	BandwidthMbps float64
	// Chain is the service chain SC_k every packet must traverse.
	Chain nfv.Chain
}

// Validate checks structural sanity of the request against a network
// of n nodes.
func (r *Request) Validate(n int) error {
	if r.Source < 0 || r.Source >= n {
		return fmt.Errorf("multicast: request %d: %w (source %d, n=%d)",
			r.ID, graph.ErrNodeOutOfRange, r.Source, n)
	}
	if len(r.Destinations) == 0 {
		return fmt.Errorf("multicast: request %d has no destinations", r.ID)
	}
	// Repeats are found in a bitset of n bits, on the stack for networks
	// of up to 4,096 nodes: destinations arrive from outside, so the
	// check must stay linear in their number.
	var buf [64]uint64
	seen := buf[:]
	if words := (n + 63) / 64; words > len(buf) {
		seen = make([]uint64, words)
	}
	for _, d := range r.Destinations {
		if d < 0 || d >= n {
			return fmt.Errorf("multicast: request %d: %w (destination %d, n=%d)",
				r.ID, graph.ErrNodeOutOfRange, d, n)
		}
		if d == r.Source {
			return fmt.Errorf("multicast: request %d: destination equals source %d", r.ID, d)
		}
		w, bit := d/64, uint64(1)<<(d%64)
		if seen[w]&bit != 0 {
			return fmt.Errorf("multicast: request %d: duplicate destination %d", r.ID, d)
		}
		seen[w] |= bit
	}
	// NaN fails every ordered comparison, so a plain <= 0 check would
	// wave it through and let it poison residual arithmetic downstream.
	if math.IsNaN(r.BandwidthMbps) || math.IsInf(r.BandwidthMbps, 0) || r.BandwidthMbps <= 0 {
		return fmt.Errorf("multicast: request %d: invalid bandwidth %v", r.ID, r.BandwidthMbps)
	}
	if r.Chain.Empty() {
		return fmt.Errorf("multicast: request %d: %w", r.ID, nfv.ErrEmptyChain)
	}
	return nil
}

// ComputeDemandMHz is the consolidated computing demand C_v(SC_k) of
// the request's chain at its bandwidth.
func (r *Request) ComputeDemandMHz() float64 {
	return r.Chain.DemandMHz(r.BandwidthMbps)
}

// Clone returns a deep copy of the request.
func (r *Request) Clone() *Request {
	cp := *r
	cp.Destinations = make([]graph.NodeID, len(r.Destinations))
	copy(cp.Destinations, r.Destinations)
	return &cp
}

// GeneratorConfig drives the random workload of the paper's
// evaluation (§VI.A).
type GeneratorConfig struct {
	// DestRatio is D_max/|V|: the maximum number of destinations per
	// request as a fraction of the network size. The paper sweeps it
	// over [0.05, 0.2].
	DestRatio float64
	// DestRatioRange, when non-zero, overrides DestRatio by drawing
	// the ratio uniformly per request — the paper's default setting
	// ("randomly drawn in the range of [0.05, 0.2]", §VI.A).
	DestRatioRange [2]float64
	// BandwidthRangeMbps is the uniform range of b_k; the paper uses
	// [50, 200] Mbps.
	BandwidthRangeMbps [2]float64
	// ChainLength is the inclusive range of service-chain lengths.
	ChainLength [2]int
}

// DefaultGeneratorConfig returns the paper's default workload
// parameters with DestRatio 0.2 (the offline figures fix the ratio
// per experiment point).
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		DestRatio:          0.2,
		BandwidthRangeMbps: [2]float64{50, 200},
		ChainLength:        [2]int{1, 3},
	}
}

// OnlineGeneratorConfig returns the paper's default online workload:
// the destination ratio is drawn per request from [0.05, 0.2]
// (§VI.A's default setting, used by the Online_CP/SP experiments).
func OnlineGeneratorConfig() GeneratorConfig {
	cfg := DefaultGeneratorConfig()
	cfg.DestRatioRange = [2]float64{0.05, 0.2}
	return cfg
}

// Generator produces deterministic random request sequences over an
// n-node network.
type Generator struct {
	n   int
	cfg GeneratorConfig
	rng *rand.Rand
	num int
}

// NewGenerator returns a generator over n nodes with the given config
// and seed.
func NewGenerator(n int, cfg GeneratorConfig, seed int64) (*Generator, error) {
	if n < 2 {
		return nil, errors.New("multicast: generator needs at least 2 nodes")
	}
	if cfg.DestRatioRange != [2]float64{} {
		if cfg.DestRatioRange[0] <= 0 || cfg.DestRatioRange[1] < cfg.DestRatioRange[0] ||
			cfg.DestRatioRange[1] > 1 {
			return nil, fmt.Errorf("multicast: invalid destination ratio range %v",
				cfg.DestRatioRange)
		}
	} else if cfg.DestRatio <= 0 || cfg.DestRatio > 1 {
		return nil, fmt.Errorf("multicast: invalid destination ratio %v", cfg.DestRatio)
	}
	if cfg.BandwidthRangeMbps[0] <= 0 || cfg.BandwidthRangeMbps[1] < cfg.BandwidthRangeMbps[0] {
		return nil, fmt.Errorf("multicast: invalid bandwidth range %v", cfg.BandwidthRangeMbps)
	}
	if cfg.ChainLength[0] < 1 || cfg.ChainLength[1] < cfg.ChainLength[0] {
		return nil, fmt.Errorf("multicast: invalid chain length range %v", cfg.ChainLength)
	}
	return &Generator{n: n, cfg: cfg, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next draws the next request: source and destinations uniform over
// the switches, destination count uniform in [1, D_max] with
// D_max = max(1, round(DestRatio*n)), bandwidth and chain per config.
func (g *Generator) Next() (*Request, error) {
	ratio := g.cfg.DestRatio
	if r := g.cfg.DestRatioRange; r != [2]float64{} {
		ratio = r[0] + g.rng.Float64()*(r[1]-r[0])
	}
	dmax := int(ratio*float64(g.n) + 0.5)
	if dmax < 1 {
		dmax = 1
	}
	if dmax > g.n-1 {
		dmax = g.n - 1
	}
	nd := 1 + g.rng.Intn(dmax)
	perm := g.rng.Perm(g.n)
	src := perm[0]
	dests := make([]graph.NodeID, nd)
	copy(dests, perm[1:1+nd])
	sort.Ints(dests)
	bw := g.cfg.BandwidthRangeMbps[0] +
		g.rng.Float64()*(g.cfg.BandwidthRangeMbps[1]-g.cfg.BandwidthRangeMbps[0])
	chain, err := nfv.RandomChain(g.rng, g.cfg.ChainLength[0], g.cfg.ChainLength[1])
	if err != nil {
		return nil, err
	}
	g.num++
	return &Request{
		ID:            g.num,
		Source:        src,
		Destinations:  dests,
		BandwidthMbps: bw,
		Chain:         chain,
	}, nil
}

// Batch draws count requests.
func (g *Generator) Batch(count int) ([]*Request, error) {
	out := make([]*Request, 0, count)
	for i := 0; i < count; i++ {
		r, err := g.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
