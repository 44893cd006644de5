package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// EventType names one step of the admission lifecycle.
type EventType string

// The admission-event vocabulary. A sequentially driven run emits, per
// request, AdmitPlanned followed by Admitted or Rejected; the engine's
// concurrent mode can interleave CommitConflict and Replanned between
// them. Departed closes a session; FailureInjected marks a structural
// change of the network (failure injection through Engine.Apply).
// The recovery subsystem (internal/recover) extends the vocabulary:
// after a FailureInjected, each affected session emits RepairAttempted
// followed by Repaired (Reason carries the mode, "local" or "replan")
// or Shed (the session could not be re-hosted and was dropped with
// ErrDegraded).
const (
	AdmitPlanned    EventType = "admit_planned"
	CommitConflict  EventType = "commit_conflict"
	Replanned       EventType = "replanned"
	Admitted        EventType = "admitted"
	Rejected        EventType = "rejected"
	Departed        EventType = "departed"
	FailureInjected EventType = "failure_injected"
	RepairAttempted EventType = "repair_attempted"
	Repaired        EventType = "repaired"
	// Reconfigured records a live session migrated to a cheaper tree by
	// a drift-triggered reconfiguration pass (Reconf_CP) after
	// Engine.Apply or Engine.Reoptimize.
	Reconfigured EventType = "reconfigured"
	Shed         EventType = "shed"
	// MutationApplied records a typed maintenance batch accepted by
	// engine.Apply — the durable form of a failure/resize script step.
	// It appears in the write-ahead log (internal/wal), which reuses
	// this event vocabulary as its record schema, rather than in the
	// live admission stream (which keeps the coarser FailureInjected).
	MutationApplied EventType = "mutation_applied"
)

// Event is one structured admission event. Fields are value types so
// events can outlive the solution objects they describe; zero-valued
// fields are omitted from the JSON encoding, keeping lines compact and
// byte-stable.
type Event struct {
	// Seq is the emission sequence number, assigned by the stream
	// (starting at 1). Strictly increasing; in concurrent runs it
	// reflects emission order, not request arrival order.
	Seq uint64 `json:"seq"`
	// Type is the lifecycle step.
	Type EventType `json:"type"`
	// Policy is the planner name (Online_CP, SP, ...).
	Policy string `json:"policy,omitempty"`
	// Shard names the shard whose pipeline emitted the event, when the
	// admission runs behind a shard router ("" for unsharded engines).
	Shard string `json:"shard,omitempty"`
	// Request is the request ID the event concerns.
	Request int `json:"request,omitempty"`
	// Reason is the canonical rejection reason (Rejected), or a short
	// description of the structural change (FailureInjected).
	Reason string `json:"reason,omitempty"`
	// Servers are the serving nodes (AdmitPlanned, Admitted).
	Servers []int `json:"servers,omitempty"`
	// Cost is the solution's operational cost (AdmitPlanned, Admitted).
	Cost float64 `json:"cost,omitempty"`
}

// Sink consumes events. Implementations must be safe for concurrent
// Emit calls: the engine's planners emit from their own goroutines.
type Sink interface {
	Emit(Event)
}

// JSONLinesSink writes one JSON object per event, newline-terminated —
// the archival format (golden-pinned in testdata/events.jsonl.golden).
type JSONLinesSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLinesSink returns a sink writing JSON lines to w.
func NewJSONLinesSink(w io.Writer) *JSONLinesSink {
	return &JSONLinesSink{w: w}
}

// Emit writes the event as one JSON line. The first write error sticks
// and suppresses further writes (inspect it with Err).
func (s *JSONLinesSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	_, s.err = s.w.Write(b)
}

// Err returns the first write or encoding error, if any.
func (s *JSONLinesSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// RingSink retains the last N events in memory — the test sink.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int
}

// NewRingSink returns a sink retaining the last n events.
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{buf: make([]Event, 0, n)}
}

// Emit records the event, evicting the oldest when full.
func (s *RingSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, ev)
		return
	}
	s.buf[s.next] = ev
	s.next = (s.next + 1) % len(s.buf)
}

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Total reports how many events were emitted (including evicted ones).
func (s *RingSink) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// MultiSink fans one event out to several sinks in order.
type MultiSink []Sink

// Emit forwards ev to every sink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}
