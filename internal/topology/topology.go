// Package topology builds the network topologies used by the paper's
// evaluation: GT-ITM-style random graphs (Waxman and transit-stub
// models), the real GÉANT pan-European research network, and
// Rocketfuel-scale ISP graphs (AS1755, AS4755). All generators are
// deterministic given a seed so that experiments are reproducible.
package topology

import (
	"errors"
	"fmt"
	"math/rand"

	"nfvmcast/internal/graph"
)

// ErrTooSmall is returned when a generator is asked for a degenerate
// topology (fewer than 2 nodes).
var ErrTooSmall = errors.New("topology: need at least 2 nodes")

// Topology is a named network structure: an undirected graph whose
// edge weights are link lengths (abstract distance units; the SDN
// layer assigns capacities and usage costs separately), optional node
// names, and a recommended number of NFV servers.
type Topology struct {
	// Name identifies the topology (e.g. "waxman-100", "GEANT").
	Name string
	// Graph is the link structure. Edge weights are link lengths.
	Graph *graph.Graph
	// NodeNames optionally labels nodes; empty for synthetic graphs.
	NodeNames []string
	// Servers is the recommended number of server-attached switches:
	// 10% of the network size for random topologies (paper §VI.A),
	// 9 for GÉANT (as in [7]), and 10% for the ISP topologies.
	Servers int
}

// ByName builds the named substrate topology shared by the admission
// daemon and the scenario harness, so a scenario can address a
// daemon's network by (name, size, seed): geant, as1755, as4755,
// waxman (size nodes) or fattree (k = 4). seed feeds the synthetic
// ones.
func ByName(name string, size int, seed int64) (*Topology, error) {
	switch name {
	case "geant":
		return GEANT(), nil
	case "as1755":
		return AS1755(), nil
	case "as4755":
		return AS4755(), nil
	case "waxman":
		return WaxmanDegree(size, DefaultAvgDegree, 0.14, seed)
	case "fattree":
		return FatTree(4, seed)
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

// NumNodes reports the node count.
func (t *Topology) NumNodes() int { return t.Graph.NumNodes() }

// NumEdges reports the link count.
func (t *Topology) NumEdges() int { return t.Graph.NumEdges() }

// Validate checks the structural invariants every topology must
// satisfy before the SDN layer will accept it.
func (t *Topology) Validate() error {
	if t.Graph == nil || t.Graph.NumNodes() < 2 {
		return ErrTooSmall
	}
	if !graph.IsConnected(t.Graph) {
		return fmt.Errorf("topology %q: %w", t.Name, graph.ErrDisconnected)
	}
	if t.Servers < 1 || t.Servers > t.Graph.NumNodes() {
		return fmt.Errorf("topology %q: invalid server count %d for %d nodes",
			t.Name, t.Servers, t.Graph.NumNodes())
	}
	if len(t.NodeNames) != 0 && len(t.NodeNames) != t.Graph.NumNodes() {
		return fmt.Errorf("topology %q: %d names for %d nodes",
			t.Name, len(t.NodeNames), t.Graph.NumNodes())
	}
	return nil
}

// PickServers deterministically selects the switch nodes that carry
// servers: a uniform random sample of t.Servers distinct nodes drawn
// with the supplied rng (the paper co-locates servers with random
// switches).
func (t *Topology) PickServers(rng *rand.Rand) []graph.NodeID {
	n := t.Graph.NumNodes()
	perm := rng.Perm(n)
	k := t.Servers
	if k > n {
		k = n
	}
	out := make([]graph.NodeID, k)
	copy(out, perm[:k])
	return out
}

// serverShare is the fraction of switches with attached servers used
// for synthetic and ISP topologies (paper §VI.A: 10%).
const serverShare = 0.10

// defaultServers returns max(1, round(share*n)).
func defaultServers(n int) int {
	s := int(float64(n)*serverShare + 0.5)
	if s < 1 {
		s = 1
	}
	return s
}

// connectComponents stitches a possibly-disconnected random graph into
// a connected one by linking consecutive components with an edge
// between random members, using the generator's own rng. Edge weight
// is the Euclidean distance when coordinates are available, else 1.
func connectComponents(g *graph.Graph, rng *rand.Rand, dist func(u, v graph.NodeID) float64) {
	labels, count := graph.ConnectedComponents(g)
	if count <= 1 {
		return
	}
	members := make([][]graph.NodeID, count)
	for v, c := range labels {
		members[c] = append(members[c], v)
	}
	for c := 1; c < count; c++ {
		u := members[0][rng.Intn(len(members[0]))]
		v := members[c][rng.Intn(len(members[c]))]
		w := 1.0
		if dist != nil {
			w = dist(u, v)
		}
		g.MustAddEdge(u, v, w)
		members[0] = append(members[0], members[c]...)
	}
}
