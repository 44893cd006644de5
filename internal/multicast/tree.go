package multicast

import (
	"errors"
	"fmt"
	"slices"

	"nfvmcast/internal/graph"
)

// Hop is one directed traversal of an undirected host link by the
// request's traffic, before (Processed=false) or after
// (Processed=true) NFV processing. A multicast stream traverses each
// directed hop once regardless of how many destinations lie behind it,
// so a PseudoTree stores hops deduplicated.
type Hop struct {
	From, To  graph.NodeID
	Edge      graph.EdgeID
	Processed bool
}

// PseudoTree is the routing graph G_T realising one NFV-enabled
// multicast request: unprocessed traffic flows from the source to the
// serving node(s), is processed by the service-chain VM there, and the
// processed stream fans out to all destinations, possibly
// back-tracking along tree paths (paper §III.B).
type PseudoTree struct {
	Source       graph.NodeID
	Destinations []graph.NodeID
	// Servers are the switch nodes whose attached servers run the
	// consolidated service-chain VM (1 <= len <= K).
	Servers []graph.NodeID
	// ServerDemands, when non-nil, carries each serving node's own
	// compute demand in MHz, position-aligned with Servers. Distributed
	// chain placement (Dist_CP) splits the chain into per-server
	// segments, so each host is charged its segment rather than the
	// whole chain. nil keeps the paper's consolidated model: every
	// serving node is charged the request's full chain demand.
	ServerDemands []float64

	hops []Hop
	// loads holds the LinkLoads handed to NewRealizedTree, before the
	// tree is shared; nil for a tree built hop by hop, whose readers
	// sort on every call. Readers never write it.
	loads []EdgeLoad
}

// NewPseudoTree returns an empty pseudo-multicast tree for the given
// endpoints.
func NewPseudoTree(source graph.NodeID, dests, servers []graph.NodeID) *PseudoTree {
	d := make([]graph.NodeID, len(dests))
	copy(d, dests)
	s := make([]graph.NodeID, len(servers))
	copy(s, servers)
	return &PseudoTree{
		Source:       source,
		Destinations: d,
		Servers:      s,
	}
}

// NewRealizedTree returns a finished pseudo-multicast tree over hops,
// which must be distinct, with loads its LinkLoads: one entry per edge
// the hops use, ascending by edge, Uses the number of hops over it. It
// copies both into exactly sized slices without AddHop's duplicate scan
// or a sort, so VisitLinkLoads reads the loads as given. Online_CP's
// realization hands its trees over this way, reading the loads off the
// Steiner tree the hops cover.
func NewRealizedTree(source graph.NodeID, dests, servers []graph.NodeID, hops []Hop, loads []EdgeLoad) *PseudoTree {
	t := NewPseudoTree(source, dests, servers)
	t.hops = slices.Clone(hops)
	t.loads = slices.Clone(loads)
	return t
}

// AddHop records a directed traversal; duplicates are ignored. Every
// builder but Online_CP's realization adds hop by hop and relies on
// this check to drop the hops its paths share: AddPath, SP, Appro_Multi's
// and Dist_CP's decompositions, and WAL replay. Trees hold tens of
// hops, so a scan beats hashing.
func (t *PseudoTree) AddHop(h Hop) {
	if slices.Contains(t.hops, h) {
		return
	}
	t.hops = append(t.hops, h)
	t.loads = nil
}

// AddPath records a directed walk along nodes/edges (as produced by
// graph path routines) with the given processed flag.
func (t *PseudoTree) AddPath(nodes []graph.NodeID, edges []graph.EdgeID, processed bool) error {
	if len(nodes) != len(edges)+1 {
		return fmt.Errorf("multicast: path shape mismatch (%d nodes, %d edges)",
			len(nodes), len(edges))
	}
	for i, e := range edges {
		t.AddHop(Hop{From: nodes[i], To: nodes[i+1], Edge: e, Processed: processed})
	}
	return nil
}

// Hops returns a copy of the deduplicated directed hop list.
func (t *PseudoTree) Hops() []Hop {
	out := make([]Hop, len(t.hops))
	copy(out, t.hops)
	return out
}

// NumHops reports the number of distinct directed hops.
func (t *PseudoTree) NumHops() int { return len(t.hops) }

// EdgeLoad is one link's entry in a tree's LinkLoads: the number of
// distinct directed traversals the tree makes over Edge.
type EdgeLoad struct {
	Edge graph.EdgeID
	Uses int
}

// LinkLoads returns, one entry per host edge the tree uses and sorted
// by edge, the number of distinct directed traversals the tree makes
// over it. Each traversal consumes the request's bandwidth b_k, so a
// link crossed by both the unprocessed and the processed stream is
// charged twice (the pseudo-multicast back-tracking cost of paper
// §III.B). The edge order makes sums over the loads deterministic.
func (t *PseudoTree) LinkLoads() []EdgeLoad {
	if t.loads != nil {
		return slices.Clone(t.loads)
	}
	return t.sortedLoads()
}

// VisitLinkLoads calls fn for each entry of LinkLoads, in the same
// order, without allocating.
func (t *PseudoTree) VisitLinkLoads(fn func(EdgeLoad)) {
	if t.loads == nil {
		t.visitSortedLoads(fn)
		return
	}
	for _, l := range t.loads {
		fn(l)
	}
}

// sortedLoads computes LinkLoads from the hops.
func (t *PseudoTree) sortedLoads() []EdgeLoad {
	loads := make([]EdgeLoad, 0, len(t.hops))
	t.visitSortedLoads(func(l EdgeLoad) { loads = append(loads, l) })
	return loads
}

// visitSortedLoads derives the link loads from the hops: their edge IDs
// sorted, then run-length counted. Sorting bare IDs in a stack buffer
// beats sorting the loads through a comparison function; trees have
// tens of hops, 121 at most on the benchmark substrates.
func (t *PseudoTree) visitSortedLoads(fn func(EdgeLoad)) {
	var buf [128]graph.EdgeID
	ids := buf[:0]
	for _, h := range t.hops {
		ids = append(ids, h.Edge)
	}
	slices.Sort(ids)
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		fn(EdgeLoad{Edge: ids[i], Uses: j - i})
		i = j
	}
}

// Errors reported by CheckDelivery.
var (
	// ErrUndelivered means some destination never receives a
	// processed packet.
	ErrUndelivered = errors.New("multicast: destination not reached by processed traffic")
	// ErrNoServer means the tree names no serving node.
	ErrNoServer = errors.New("multicast: pseudo-multicast tree has no server")
)

// CheckDelivery verifies the tree's core invariant by simulating flood
// forwarding over the directed hops: a packet injected unprocessed at
// the source must reach every destination in processed state, where
// the unprocessed→processed transition happens exactly at serving
// nodes. The host graph supplies edge endpoints for hop sanity checks.
func (t *PseudoTree) CheckDelivery(g *graph.Graph) error {
	if len(t.Servers) == 0 {
		return ErrNoServer
	}
	isServer := make(map[graph.NodeID]struct{}, len(t.Servers))
	for _, s := range t.Servers {
		isServer[s] = struct{}{}
	}
	// Sanity: every hop must ride a real edge between its endpoints.
	type arc struct {
		to        graph.NodeID
		processed bool
	}
	out := make(map[graph.NodeID][]arc)
	for _, h := range t.hops {
		e := g.Edge(h.Edge)
		if !((e.U == h.From && e.V == h.To) || (e.V == h.From && e.U == h.To)) {
			return fmt.Errorf("multicast: hop %d->%d does not match edge %d {%d,%d}",
				h.From, h.To, h.Edge, e.U, e.V)
		}
		out[h.From] = append(out[h.From], arc{to: h.To, processed: h.Processed})
	}

	// Layered BFS over (node, processedState).
	type state struct {
		node      graph.NodeID
		processed bool
	}
	start := state{node: t.Source, processed: false}
	visited := map[state]struct{}{start: {}}
	queue := []state{start}
	push := func(s state) {
		if _, ok := visited[s]; !ok {
			visited[s] = struct{}{}
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Processing transition at serving nodes.
		if !cur.processed {
			if _, ok := isServer[cur.node]; ok {
				push(state{node: cur.node, processed: true})
			}
		}
		for _, a := range out[cur.node] {
			// A hop carries traffic in the state it was installed for:
			// unprocessed hops extend the unprocessed stream,
			// processed hops the processed stream.
			if a.processed == cur.processed {
				push(state{node: a.to, processed: cur.processed})
			}
		}
	}
	for _, d := range t.Destinations {
		if _, ok := visited[state{node: d, processed: true}]; !ok {
			return fmt.Errorf("%w: destination %d", ErrUndelivered, d)
		}
	}
	return nil
}

// UsedNodes returns every node touched by a hop, plus source, servers
// and destinations.
func (t *PseudoTree) UsedNodes() []graph.NodeID {
	seen := make(map[graph.NodeID]struct{})
	var out []graph.NodeID
	add := func(v graph.NodeID) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	add(t.Source)
	for _, v := range t.Servers {
		add(v)
	}
	for _, v := range t.Destinations {
		add(v)
	}
	for _, h := range t.hops {
		add(h.From)
		add(h.To)
	}
	return out
}
