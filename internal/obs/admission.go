package obs

import (
	"sync/atomic"
	"time"
)

// Canonical rejection-reason labels. core.RejectReason maps error
// chains onto these; the engine adds ReasonCommitConflict for plans
// that exhausted their re-plan after optimistic-commit misses.
const (
	ReasonBandwidth      = "bandwidth"
	ReasonCompute        = "compute"
	ReasonThreshold      = "threshold"
	ReasonUnreachable    = "unreachable"
	ReasonDelayBound     = "delay_bound"
	ReasonResourceDown   = "resource_down"
	ReasonCommitConflict = "commit_conflict"
	ReasonOther          = "other"
)

// Repair-mode labels for the nfv_repaired_total counter: a local
// repair re-routes the severed tree around the failure with the
// original placement pinned; a replan ran the full planner path.
const (
	RepairModeLocal  = "local"
	RepairModeReplan = "replan"
)

// AdmissionObs binds the instruments of one admission pipeline (one
// engine or admitter): lifecycle counters, the live/in-flight
// gauges, sampled latency histograms, and the event stream. All
// methods are nil-receiver safe so instrumented code calls them
// unconditionally; on the hot path each costs one or two atomic adds
// and — unless latency sampling is enabled — never reads the clock.
//
// One AdmissionObs serves one policy; give concurrent pipelines over
// one Registry distinct policy labels (or share the AdmissionObs — its
// instruments are concurrency-safe).
type AdmissionObs struct {
	policy string
	shard  string
	sink   Sink
	sample bool
	seq    atomic.Uint64

	admitted  *Counter
	rejected  map[string]*Counter
	rejOther  *Counter
	departed  *Counter
	plans     *Counter
	replans   *Counter
	conflicts *Counter
	clones    *Counter
	batches   *Counter
	failures  *Counter
	repairs   *Counter
	repaired  map[string]*Counter
	reconf    *Counter
	shed      *Counter
	live      *Gauge
	inflight  *Gauge

	planLat     *Histogram
	commitLat   *Histogram
	cloneLat    *Histogram
	recoveryLat *Histogram
	batchSize   *Histogram
}

// AdmissionObsOptions configures an AdmissionObs.
type AdmissionObsOptions struct {
	// Events receives the structured admission-event stream; nil
	// disables emission.
	Events Sink
	// SampleLatency enables the plan/commit/snapshot-clone latency
	// histograms. Off by default: latency sampling is the only
	// instrument that reads time.Now() on the hot path.
	SampleLatency bool
	// Shard adds a shard label to every instrument and stamps the
	// Shard field on every emitted event, so the pipelines of a shard
	// router stay attributable on one shared Registry. "" (the
	// default) registers the unsharded series exactly as before.
	Shard string
}

// NewAdmissionObs registers the admission instrument set for one
// policy on reg and returns the bound hooks. Reason-labelled rejection
// counters are pre-registered for every canonical reason so exposition
// output has a stable series set from the first scrape.
func NewAdmissionObs(reg *Registry, policy string, opts AdmissionObsOptions) *AdmissionObs {
	base := []Label{L("policy", policy)}
	if opts.Shard != "" {
		base = append(base, L("shard", opts.Shard))
	}
	with := func(extra Label) []Label {
		return append(append(make([]Label, 0, len(base)+1), base...), extra)
	}
	o := &AdmissionObs{
		policy: policy,
		shard:  opts.Shard,
		sink:   opts.Events,
		sample: opts.SampleLatency,
		admitted: reg.Counter("nfv_admitted_total",
			"Requests admitted (allocated and live).", base...),
		rejected: make(map[string]*Counter),
		departed: reg.Counter("nfv_departed_total",
			"Admitted sessions that departed and released their resources.", base...),
		plans: reg.Counter("nfv_plans_total",
			"Planner invocations (initial plans and re-plans).", base...),
		replans: reg.Counter("nfv_replans_total",
			"Plans recomputed after an optimistic-commit conflict.", base...),
		conflicts: reg.Counter("nfv_commit_conflicts_total",
			"Commit-time validation failures (plan invalidated by a concurrent commit).", base...),
		clones: reg.Counter("nfv_snapshot_clones_total",
			"Residual-network snapshot clones taken for planning.", base...),
		batches: reg.Counter("nfv_commit_batches_total",
			"Commit epochs processed by the writer (each batches >= 1 commit tickets).", base...),
		failures: reg.Counter("nfv_failures_injected_total",
			"Structural changes (link/server failure injection) applied through the engine.", base...),
		repairs: reg.Counter("nfv_repairs_attempted_total",
			"Live sessions a recovery pass tried to repair after a failure.", base...),
		repaired: make(map[string]*Counter),
		reconf: reg.Counter("nfv_reconfigurations_total",
			"Live sessions migrated to a cheaper tree by a reconfiguration pass.", base...),
		shed: reg.Counter("nfv_shed_total",
			"Live sessions dropped by recovery because no residual capacity could host them.", base...),
		live: reg.Gauge("nfv_live_sessions",
			"Admitted sessions currently holding resources.", base...),
		inflight: reg.Gauge("nfv_inflight_admissions",
			"Admit calls currently planning or committing (engine queue depth).", base...),
		planLat: reg.Histogram("nfv_plan_seconds",
			"Planner latency (sampled; empty unless SampleLatency).", nil, base...),
		commitLat: reg.Histogram("nfv_commit_seconds",
			"Commit (allocation + bookkeeping) latency on the writer (sampled).", nil, base...),
		cloneLat: reg.Histogram("nfv_snapshot_clone_seconds",
			"Residual-snapshot clone latency on the writer (sampled).", nil, base...),
		recoveryLat: reg.Histogram("nfv_recovery_seconds",
			"End-to-end latency of one recovery pass (always sampled; recovery is rare).", nil, base...),
		batchSize: reg.Histogram("nfv_commit_batch_size",
			"Commit tickets per epoch batch.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}, base...),
	}
	for _, mode := range []string{RepairModeLocal, RepairModeReplan} {
		o.repaired[mode] = reg.Counter("nfv_repaired_total",
			"Sessions re-hosted by recovery, by repair mode.", with(L("mode", mode))...)
	}
	for _, reason := range []string{
		ReasonBandwidth, ReasonCompute, ReasonThreshold, ReasonUnreachable,
		ReasonDelayBound, ReasonResourceDown, ReasonCommitConflict, ReasonOther,
	} {
		o.rejected[reason] = reg.Counter("nfv_rejected_total",
			"Requests rejected, by canonical reason.", with(L("reason", reason))...)
	}
	o.rejOther = o.rejected[ReasonOther]
	return o
}

// Shard returns the shard label, "" on a nil or unsharded receiver.
func (o *AdmissionObs) Shard() string {
	if o == nil {
		return ""
	}
	return o.shard
}

// Policy returns the policy label, "" on a nil receiver.
func (o *AdmissionObs) Policy() string {
	if o == nil {
		return ""
	}
	return o.policy
}

// emit assigns the sequence number and forwards ev to the sink.
func (o *AdmissionObs) emit(ev Event) {
	if o.sink == nil {
		return
	}
	ev.Seq = o.seq.Add(1)
	ev.Policy = o.policy
	ev.Shard = o.shard
	o.sink.Emit(ev)
}

// Now returns the wall clock when latency sampling is enabled and the
// zero time otherwise — the guard that keeps time.Now() off the hot
// path by default. Pass the result to the *Done observers.
func (o *AdmissionObs) Now() time.Time {
	if o == nil || !o.sample {
		return time.Time{}
	}
	return time.Now()
}

func observe(h *Histogram, start time.Time) {
	if !start.IsZero() {
		h.Observe(time.Since(start).Seconds())
	}
}

// PlanDone records one planner invocation: the plan counter, the
// sampled latency, and on success an AdmitPlanned event.
func (o *AdmissionObs) PlanDone(start time.Time, reqID int, servers []int, cost float64, err error) {
	if o == nil {
		return
	}
	o.plans.Inc()
	observe(o.planLat, start)
	if err == nil {
		o.emit(Event{Type: AdmitPlanned, Request: reqID, Servers: servers, Cost: cost})
	}
}

// Replanned records a re-plan after an optimistic-commit conflict.
// Call it in addition to PlanDone for the second plan.
func (o *AdmissionObs) Replanned(reqID int) {
	if o == nil {
		return
	}
	o.replans.Inc()
	o.emit(Event{Type: Replanned, Request: reqID})
}

// CommitConflict records one commit-time validation failure.
func (o *AdmissionObs) CommitConflict(reqID int, reason string) {
	if o == nil {
		return
	}
	o.conflicts.Inc()
	o.emit(Event{Type: CommitConflict, Request: reqID, Reason: reason})
}

// CommitDone records a successful commit: the admitted counter, live
// gauge, sampled commit latency, and an Admitted event.
func (o *AdmissionObs) CommitDone(start time.Time, reqID int, servers []int, cost float64) {
	if o == nil {
		return
	}
	o.admitted.Inc()
	o.live.Add(1)
	observe(o.commitLat, start)
	o.emit(Event{Type: Admitted, Request: reqID, Servers: servers, Cost: cost})
}

// RejectedReason counts a rejection under the given canonical reason
// and emits a Rejected event.
func (o *AdmissionObs) RejectedReason(reqID int, reason string) {
	if o == nil {
		return
	}
	c, ok := o.rejected[reason]
	if !ok {
		c = o.rejOther
		reason = ReasonOther
	}
	c.Inc()
	o.emit(Event{Type: Rejected, Request: reqID, Reason: reason})
}

// DepartDone records a session departure.
func (o *AdmissionObs) DepartDone(reqID int) {
	if o == nil {
		return
	}
	o.departed.Inc()
	o.live.Add(-1)
	o.emit(Event{Type: Departed, Request: reqID})
}

// CloneDone records one residual-snapshot clone (count always, latency
// when sampling).
func (o *AdmissionObs) CloneDone(start time.Time) {
	if o == nil {
		return
	}
	o.clones.Inc()
	observe(o.cloneLat, start)
}

// BatchCommitted records one commit epoch processed by the writer:
// the batch counter and the tickets-per-batch histogram. size counts
// every ticket in the epoch, committed or failed.
func (o *AdmissionObs) BatchCommitted(size int) {
	if o == nil {
		return
	}
	o.batches.Inc()
	o.batchSize.Observe(float64(size))
}

// FailureInjected records a structural change applied through the
// engine's Update hatch (the network's StructureVersion moved).
func (o *AdmissionObs) FailureInjected(detail string) {
	if o == nil {
		return
	}
	o.failures.Inc()
	o.emit(Event{Type: FailureInjected, Reason: detail})
}

// RepairAttempted records that a recovery pass is about to repair one
// affected session.
func (o *AdmissionObs) RepairAttempted(reqID int) {
	if o == nil {
		return
	}
	o.repairs.Inc()
	o.emit(Event{Type: RepairAttempted, Request: reqID})
}

// Repaired records a session re-hosted by recovery under the given
// mode (RepairModeLocal or RepairModeReplan) at the new tree's cost.
func (o *AdmissionObs) Repaired(reqID int, mode string, cost float64) {
	if o == nil {
		return
	}
	if c, ok := o.repaired[mode]; ok {
		c.Inc()
	}
	o.emit(Event{Type: Repaired, Request: reqID, Reason: mode, Cost: cost})
}

// Reconfigured records a live session migrated to a cheaper tree by a
// reconfiguration pass, at the new tree's cost.
func (o *AdmissionObs) Reconfigured(reqID int, servers []int, cost float64) {
	if o == nil {
		return
	}
	o.reconf.Inc()
	o.emit(Event{Type: Reconfigured, Request: reqID, Servers: servers, Cost: cost})
}

// ReconfiguredCount returns the reconfiguration counter's value (0 on
// nil).
func (o *AdmissionObs) ReconfiguredCount() uint64 {
	if o == nil {
		return 0
	}
	return o.reconf.Value()
}

// SessionShed records a session recovery had to drop: its resources
// are released and it no longer counts as live.
func (o *AdmissionObs) SessionShed(reqID int, reason string) {
	if o == nil {
		return
	}
	o.shed.Inc()
	o.live.Add(-1)
	o.emit(Event{Type: Shed, Request: reqID, Reason: reason})
}

// RecoveryPass records the end-to-end latency of one recovery pass.
// Unlike the admission latencies this is not gated on SampleLatency:
// recovery is rare and its latency is the headline metric of the
// subsystem.
func (o *AdmissionObs) RecoveryPass(seconds float64) {
	if o == nil {
		return
	}
	o.recoveryLat.Observe(seconds)
}

// InflightAdd moves the in-flight admissions gauge (engine queue
// depth) by delta.
func (o *AdmissionObs) InflightAdd(delta float64) {
	if o == nil {
		return
	}
	o.inflight.Add(delta)
}

// AdmittedCount returns the admitted counter's value (0 on nil).
func (o *AdmissionObs) AdmittedCount() uint64 {
	if o == nil {
		return 0
	}
	return o.admitted.Value()
}

// DepartedCount returns the departed counter's value (0 on nil).
func (o *AdmissionObs) DepartedCount() uint64 {
	if o == nil {
		return 0
	}
	return o.departed.Value()
}

// LiveSessions returns the live-session gauge's value (0 on nil).
func (o *AdmissionObs) LiveSessions() float64 {
	if o == nil {
		return 0
	}
	return o.live.Value()
}

// ShedCount returns the shed counter's value (0 on nil). Together with
// AdmittedCount and DepartedCount it closes the session-conservation
// equation admitted - departed - shed = live that the scenario
// harness checks against the engine's live table.
func (o *AdmissionObs) ShedCount() uint64 {
	if o == nil {
		return 0
	}
	return o.shed.Value()
}
