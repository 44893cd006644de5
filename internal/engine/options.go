package engine

import (
	"nfvmcast/internal/core"
	"nfvmcast/internal/obs"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// Functional options — the v1 construction surface. The Options struct
// remains for compatibility, but new call sites should prefer
//
//	eng := engine.NewWith(nw, planner,
//	    engine.WithWorkers(8),
//	    engine.WithMetrics(admObs),
//	    engine.WithRecovery(recov.DefaultPolicy()))
//
// because option functions can grow without breaking callers.

// Option configures an Engine at construction.
type Option func(*Options)

// WithWorkers bounds how many Admit calls may plan concurrently: 0 or
// 1 selects sequential mode (byte-identical to a core.Admitter),
// n > 1 allows n concurrent planners on residual snapshots, negative
// requests one planner slot per CPU.
func WithWorkers(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// WithMetrics attaches observability: lifecycle counters, per-reason
// rejection counts, gauges, sampled latencies and the admission-event
// stream. nil disables instrumentation.
func WithMetrics(a *obs.AdmissionObs) Option {
	return func(o *Options) { o.Obs = a }
}

// WithRecovery enables the self-healing subsystem under pol: after
// failure injection through Update, the engine repairs or sheds every
// affected live session before Update returns (see internal/recover).
func WithRecovery(pol recov.Policy) Option {
	return func(o *Options) {
		p := pol
		o.Recovery = &p
	}
}

// WithBatchWindow bounds how many finished plans one commit epoch may
// absorb: the writer drains up to n waiting commits per loop
// iteration, validates them in ascending request-ID order and bumps
// the network's MutationVersion once per epoch. n <= 1 keeps
// per-commit epochs; the window only matters with WithWorkers(> 1),
// and a sequentially-driven engine decides identically at every
// window.
func WithBatchWindow(n int) Option {
	return func(o *Options) { o.BatchWindow = n }
}

// WithJournal makes the engine durable: every state-changing outcome
// is appended to j on the writer goroutine and barriered by the
// committer goroutine before the operation acks (see Journal,
// committer.go and internal/wal). nil keeps the engine in-memory.
func WithJournal(j Journal) Option {
	return func(o *Options) { o.Journal = j }
}

// WithRepairCostFactor sets the local-repair acceptance factor γ: a
// re-routed tree is kept only when its operational cost is at most
// gamma times the damaged tree's; gamma <= 0 forces every repair
// through the full re-plan path. It enables recovery with the default
// policy when WithRecovery was not (yet) applied; order relative to
// WithRecovery does not matter as long as it comes after.
func WithRepairCostFactor(gamma float64) Option {
	return func(o *Options) {
		if o.Recovery == nil {
			p := recov.DefaultPolicy()
			o.Recovery = &p
		}
		o.Recovery.Gamma = gamma
	}
}

// NewWith is New with functional options.
func NewWith(nw *sdn.Network, planner core.Planner, options ...Option) *Engine {
	var o Options
	for _, fn := range options {
		fn(&o)
	}
	return New(nw, planner, o)
}
