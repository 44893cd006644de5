package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
)

// Errors shared by the algorithms.
var (
	// ErrNoFeasibleServer means no server (combination) can host the
	// request's service chain under the current constraints.
	ErrNoFeasibleServer = errors.New("core: no feasible server for service chain")
	// ErrUnreachable means the source, a destination, or every
	// candidate server is cut off in the (residual) network.
	ErrUnreachable = errors.New("core: endpoints unreachable in (residual) network")
	// ErrRejected is returned by online algorithms when the admission
	// policy rejects a request.
	ErrRejected = errors.New("core: request rejected")
	// ErrComputeExhausted means no server has enough residual
	// computing capacity for the request's chain.
	ErrComputeExhausted = errors.New("core: no server with enough free computing")
	// ErrThresholdExceeded means the exponential-weight admission
	// thresholds (σ_v, σ_e) exclude every candidate server and tree.
	ErrThresholdExceeded = errors.New("core: admission thresholds exclude every tree")
	// ErrCommitConflict means a plan valid on its residual snapshot
	// was invalidated by concurrent commits and the re-plan budget is
	// exhausted (the engine's optimistic-concurrency give-up path).
	ErrCommitConflict = errors.New("core: commit conflict exhausted re-plan")
)

// RejectReason maps a rejection error chain onto the canonical reason
// labels of the observability layer (obs.Reason*): which constraint
// turned the request away. Commit conflicts are checked first — their
// chains also carry the underlying allocation violation. Returns "" for
// nil and obs.ReasonOther for unclassified rejections.
func RejectReason(err error) string {
	if err == nil {
		return ""
	}
	var (
		bwErr  *sdn.InsufficientBandwidthError
		cmpErr *sdn.InsufficientComputeError
	)
	switch {
	case errors.Is(err, ErrCommitConflict):
		return obs.ReasonCommitConflict
	case errors.Is(err, ErrComputeExhausted):
		return obs.ReasonCompute
	case errors.Is(err, ErrThresholdExceeded):
		return obs.ReasonThreshold
	case errors.Is(err, ErrUnreachable), errors.Is(err, ErrNoFeasibleServer):
		return obs.ReasonUnreachable
	case errors.Is(err, sdn.ErrLinkDown), errors.Is(err, sdn.ErrServerDown):
		return obs.ReasonResourceDown
	case errors.As(err, &bwErr):
		return obs.ReasonBandwidth
	case errors.As(err, &cmpErr):
		return obs.ReasonCompute
	default:
		return obs.ReasonOther
	}
}

// Solution is an algorithm's answer for one request: the routing
// graph, which servers host the chain, and its costs.
type Solution struct {
	// Request is the solved request.
	Request *multicast.Request
	// Tree is the pseudo-multicast tree realising the request.
	Tree *multicast.PseudoTree
	// Servers are the switches whose servers run the chain VM.
	Servers []graph.NodeID
	// OperationalCost is the pay-as-you-go cost of the realised tree:
	// sum over links of traversals*b_k*c_e plus sum over used servers
	// of C_v(SC_k)*c_v. This is what the paper's offline figures plot.
	OperationalCost float64
	// SelectionCost is the objective value the algorithm minimised
	// when picking this solution (the auxiliary-tree cost c(T_k^i) for
	// Appro_Multi, the exponential cost for Online_CP, hop count for
	// SP). Comparable only within one algorithm.
	SelectionCost float64
}

// OperationalCost prices a pseudo-multicast tree on a network using
// the linear pay-as-you-go model of the offline problem (paper §III.C
// Case 1): every distinct directed traversal of a link is charged
// b_k*c_e and every serving node is charged C_v(SC_k)*c_v.
func OperationalCost(nw *sdn.Network, req *multicast.Request, tree *multicast.PseudoTree) float64 {
	// The loads come sorted by edge: float addition is order-dependent,
	// and an unordered sum would make near-tie candidate selection (and
	// thus whole experiment runs) non-deterministic.
	var cost float64
	tree.VisitLinkLoads(func(l multicast.EdgeLoad) {
		cost += float64(l.Uses) * req.BandwidthMbps * nw.LinkUnitCost(l.Edge)
	})
	demand := req.ComputeDemandMHz()
	for i, v := range tree.Servers {
		d := demand
		if tree.ServerDemands != nil {
			d = tree.ServerDemands[i]
		}
		cost += d * nw.ServerUnitCost(v)
	}
	return cost
}

// AllocationFor converts a pseudo-multicast tree into the resource
// bundle it occupies: b_k per distinct directed traversal per link,
// and C_v(SC_k) at every serving node. Both lists come out ascending by
// ID, as sdn.Allocation requires.
func AllocationFor(req *multicast.Request, tree *multicast.PseudoTree) sdn.Allocation {
	// A tree uses at most one link per hop.
	links := make([]sdn.LinkShare, 0, tree.NumHops())
	tree.VisitLinkLoads(func(l multicast.EdgeLoad) {
		links = append(links, sdn.LinkShare{Edge: l.Edge, Mbps: float64(l.Uses) * req.BandwidthMbps})
	})
	servers := make([]sdn.ServerShare, 0, len(tree.Servers))
	demand := req.ComputeDemandMHz()
	for i, v := range tree.Servers {
		d := demand
		if tree.ServerDemands != nil {
			// Distributed placement: each host carries its own segment.
			d = tree.ServerDemands[i]
		}
		j, found := slices.BinarySearchFunc(servers, v, func(s sdn.ServerShare, v graph.NodeID) int {
			return cmp.Compare(s.Node, v)
		})
		switch {
		case !found:
			servers = slices.Insert(servers, j, sdn.ServerShare{Node: v, MHz: d})
		case tree.ServerDemands != nil:
			// A repeated host sums its segments in tree order; the
			// consolidated model charges the chain once.
			servers[j].MHz += d
		}
	}
	return sdn.Allocation{Links: links, Servers: servers}
}

// validateInput checks a request against a network before solving.
func validateInput(nw *sdn.Network, req *multicast.Request) error {
	if err := req.Validate(nw.NumNodes()); err != nil {
		return err
	}
	if nw.NumServers() == 0 {
		return fmt.Errorf("%w: network has no servers", ErrNoFeasibleServer)
	}
	return nil
}
