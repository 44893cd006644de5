package sdn

// Resource-change notifications. Every failure-state transition
// (SetLinkUp, SetServerUp) appends one ResourceEvent to the network's
// pending buffer, stamped with the MutationVersion the transition
// produced. A single consumer — the admission engine's writer, which
// owns all mutations — drains the buffer after each maintenance update
// and uses the events to decide whether a recovery pass is due and
// which resources it concerns. The buffer is part of the mutable
// residual state: like every mutator it must only be touched by the
// goroutine that owns the network, and clones (read-only planning
// snapshots) start with an empty buffer so a snapshot can never steal
// the owner's notifications.

// ResourceKind distinguishes link from server events.
type ResourceKind uint8

// The two resource kinds of the substrate.
const (
	LinkResource ResourceKind = iota
	ServerResource
)

// String names the kind for event logs.
func (k ResourceKind) String() string {
	if k == LinkResource {
		return "link"
	}
	return "server"
}

// ResourceEvent records one failure-state transition: resource ID
// (an edge ID for links, a node ID for servers), the new state, and
// the MutationVersion stamped when the transition was applied, which
// lets a consumer tell which residual state a notification belongs to.
// A transition always takes a fresh version, higher than any the
// network named before, so the stamps order the events among
// themselves; they do not order events against allocations, since a
// Release that undoes an Allocate goes back to an older version.
type ResourceEvent struct {
	// MutationVersion names the network's state immediately after
	// this transition was applied.
	MutationVersion uint64
	// Kind says whether ID is an edge or a node.
	Kind ResourceKind
	// ID is the failed/restored resource (graph.EdgeID or
	// graph.NodeID, both ints).
	ID int
	// Up is the new state: false = failed, true = restored.
	Up bool
}

// recordResourceEvent appends a transition to the pending buffer.
// Callers take the fresh version first so the stamp names the
// post-transition state.
func (nw *Network) recordResourceEvent(kind ResourceKind, id int, up bool) {
	nw.pending = append(nw.pending, ResourceEvent{
		MutationVersion: nw.mutVer,
		Kind:            kind,
		ID:              id,
		Up:              up,
	})
}

// DrainResourceEvents returns the failure-state transitions recorded
// since the last drain, in application order, and clears the buffer.
// Like every mutator it must be called from the goroutine that owns
// the network (the engine drains inside its writer).
func (nw *Network) DrainResourceEvents() []ResourceEvent {
	out := nw.pending
	nw.pending = nil
	return out
}
