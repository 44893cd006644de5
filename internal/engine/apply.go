package engine

import (
	"fmt"
	"math"

	"nfvmcast/internal/core"
	"nfvmcast/internal/sdn"
)

// Typed maintenance mutations. Apply is the engine's one way to change
// the network's failure state and capacities: a batch of typed
// mutations is validated in full under the writer lock before the first
// one is applied, so a malformed event (unknown link or server ID,
// negative or non-finite capacity, resize below the allocated share)
// rejects the whole batch with *MalformedMutationError and the network
// provably untouched. A batch that validates is applied atomically with
// respect to concurrent Admits and journaled as one typed record, so
// replay re-applies it exactly; any structural change then runs the
// failure-injection path (FailureInjected event, automatic recovery
// pass) before Apply returns.

// MutationKind names the typed maintenance operations Apply accepts.
type MutationKind uint8

// The mutation vocabulary: link/server failure-state transitions and
// capacity right-sizing.
const (
	// LinkState sets link ID up (Up=true) or failed (Up=false).
	LinkState MutationKind = iota
	// ServerState sets the server at node ID up or failed.
	ServerState
	// LinkCapacity resizes link ID's bandwidth capacity to Capacity
	// Mbps (must cover the currently allocated share).
	LinkCapacity
	// ServerCapacity resizes the server at node ID to Capacity MHz
	// (must cover the currently allocated share).
	ServerCapacity
)

// String names the kind for diagnostics.
func (k MutationKind) String() string {
	switch k {
	case LinkState:
		return "link-state"
	case ServerState:
		return "server-state"
	case LinkCapacity:
		return "link-capacity"
	case ServerCapacity:
		return "server-capacity"
	default:
		return fmt.Sprintf("mutation-kind-%d", uint8(k))
	}
}

// Mutation is one typed maintenance event.
type Mutation struct {
	// Kind selects the operation.
	Kind MutationKind
	// ID is the link (edge ID) or server (node ID) the mutation
	// concerns.
	ID int
	// Up is the new failure state for LinkState/ServerState.
	Up bool
	// Capacity is the new capacity for LinkCapacity/ServerCapacity.
	Capacity float64
}

// String renders the mutation for error messages and event details.
func (m Mutation) String() string {
	switch m.Kind {
	case LinkState, ServerState:
		state := "down"
		if m.Up {
			state = "up"
		}
		return fmt.Sprintf("%s %d %s", m.Kind, m.ID, state)
	default:
		return fmt.Sprintf("%s %d -> %g", m.Kind, m.ID, m.Capacity)
	}
}

// MalformedMutationError rejects an Apply batch: the mutation at Index
// failed validation for Reason, and no mutation of the batch was
// applied.
type MalformedMutationError struct {
	// Index is the offending mutation's position in the batch.
	Index int
	// Mutation is the offending event.
	Mutation Mutation
	// Reason says what is malformed about it.
	Reason string
}

func (e *MalformedMutationError) Error() string {
	return fmt.Sprintf("engine: malformed mutation %d (%s): %s",
		e.Index, e.Mutation, e.Reason)
}

// validateMutation checks m against the network's current state
// without mutating it. It must be called under the writer lock.
func validateMutation(nw *sdn.Network, m Mutation) string {
	switch m.Kind {
	case LinkState:
		if m.ID < 0 || m.ID >= nw.NumEdges() {
			return fmt.Sprintf("link %d out of range (m=%d)", m.ID, nw.NumEdges())
		}
	case ServerState:
		if !nw.IsServer(m.ID) {
			return fmt.Sprintf("node %d has no attached server", m.ID)
		}
	case LinkCapacity:
		if m.ID < 0 || m.ID >= nw.NumEdges() {
			return fmt.Sprintf("link %d out of range (m=%d)", m.ID, nw.NumEdges())
		}
		if math.IsNaN(m.Capacity) || math.IsInf(m.Capacity, 0) || m.Capacity <= 0 {
			return fmt.Sprintf("invalid capacity %v", m.Capacity)
		}
		if alloc := nw.BandwidthCap(m.ID) - nw.ResidualBandwidth(m.ID); m.Capacity < alloc-1e-6 {
			return fmt.Sprintf("capacity %.1f Mbps below the %.1f Mbps live sessions hold", m.Capacity, alloc)
		}
	case ServerCapacity:
		if !nw.IsServer(m.ID) {
			return fmt.Sprintf("node %d has no attached server", m.ID)
		}
		if math.IsNaN(m.Capacity) || math.IsInf(m.Capacity, 0) || m.Capacity <= 0 {
			return fmt.Sprintf("invalid capacity %v", m.Capacity)
		}
		if alloc := nw.ComputeCap(m.ID) - nw.ResidualCompute(m.ID); m.Capacity < alloc-1e-6 {
			return fmt.Sprintf("capacity %.1f MHz below the %.1f MHz live sessions hold", m.Capacity, alloc)
		}
	default:
		return "unknown mutation kind"
	}
	return ""
}

// applyMutation applies an already-validated mutation. The setters
// re-validate internally; a failure here would mean the validation
// above drifted from the sdn layer's, which the unit tests pin.
func applyMutation(nw *sdn.Network, m Mutation) error {
	switch m.Kind {
	case LinkState:
		return nw.SetLinkUp(m.ID, m.Up)
	case ServerState:
		return nw.SetServerUp(m.ID, m.Up)
	case LinkCapacity:
		return nw.SetBandwidthCap(m.ID, m.Capacity)
	default:
		return nw.SetComputeCap(m.ID, m.Capacity)
	}
}

// Apply validates and applies a batch of typed maintenance mutations
// under the writer lock. Validation of the whole batch precedes the
// first application: on a malformed event Apply returns a
// *MalformedMutationError and the network is untouched — no partial
// failure script is ever left behind, which is what makes Apply safe
// to drive from declarative scenario configs and fuzzers. A batch that
// validates is applied in order as one atomic update and journaled as a
// mutation_applied record. When the batch changes the network's
// structure (a failure-state change bumps StructureVersion), a
// FailureInjected event is emitted and counted and, under a recovery
// policy, a recovery pass repairs or sheds every affected live session
// before Apply returns (inspect it with LastRecovery); its outcomes are
// journaled after the batch. A successful Apply then runs the planner's
// migration pass when the planner is a core.Reconfigurer — an empty
// batch changes nothing else and is the heartbeat that drives it.
func (e *Engine) Apply(muts ...Mutation) error {
	var err error
	if xerr := e.exec(func() {
		nw := e.adm.Network()
		before := nw.StructureVersion()
		err = applyBatch(nw, muts)
		// Count the epoch conservatively so an in-flight plan straddling
		// the batch commits as stale.
		e.mutations++
		if err == nil && len(muts) > 0 {
			err = e.journalOutcomes(Outcome{Kind: MutationsApplied, Mutations: muts})
		}
		if after := nw.StructureVersion(); after != before {
			detail := fmt.Sprintf("structure version %d -> %d", before, after)
			if s := describeEvents(nw.DrainResourceEvents()); s != "" {
				detail += ": " + s
			}
			e.obs.FailureInjected(detail)
			if rerr := e.recoverLocked(); rerr != nil && err == nil {
				err = rerr
			}
		}
		if err == nil && e.reconf != nil {
			err = e.reconfigureLocked()
		}
	}); xerr != nil {
		return xerr
	}
	return err
}

// applyBatch validates the whole batch, then applies it in order. It
// must be called under the writer lock.
func applyBatch(nw *sdn.Network, muts []Mutation) error {
	for i, m := range muts {
		if reason := validateMutation(nw, m); reason != "" {
			return &MalformedMutationError{Index: i, Mutation: m, Reason: reason}
		}
	}
	for _, m := range muts {
		if err := applyMutation(nw, m); err != nil {
			return fmt.Errorf("engine: apply %s: %w", m, err)
		}
	}
	return nil
}

// Lives returns the solutions currently holding resources, in
// ascending request-ID order — the live table the consistency oracles
// (scenario invariants, fuzz targets) reconcile against residual
// capacities. The returned solutions are shared, not copies; treat
// them as read-only.
func (e *Engine) Lives() []*core.Solution {
	var out []*core.Solution
	_ = e.exec(func() { out = e.adm.Lives() })
	return out
}
