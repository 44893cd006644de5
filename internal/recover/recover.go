// Package recover implements self-healing failure recovery for the
// admission engine. After failure injection marks links or servers
// down, a recovery pass walks every admitted session whose
// pseudo-multicast tree touches a failed resource (in ascending
// request-ID order, which makes outcomes deterministic), releases its
// allocation, and tries to re-host it:
//
//  1. Local repair — re-route the tree with the VM placement pinned
//     (core.RepairReroute, one Steiner construction). Accepted when the
//     replacement's operational cost stays within Policy.Gamma times
//     the original tree's cost.
//  2. Full re-plan — the engine's normal planner path on the residual
//     network, free to move the VM, retried under a bounded budget
//     with exponential backoff when committing the replacement fails.
//  3. Shed — when neither can be hosted, the session is dropped
//     deterministically: its entry leaves the live table (resources
//     were already released) and its outcome carries ErrDegraded.
//
// A Recoverer only mutates state through the core.Admitter handed to
// it, and must run wherever that admitter's single-caller rule is
// honoured — inside the engine that is under the writer lock.
package recover

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/obs"
)

// ErrDegraded marks a session recovery had to shed: the failure left
// no residual capacity able to host it, so it was dropped rather than
// repaired. Inspect with errors.Is.
var ErrDegraded = errors.New("recover: session shed, no residual capacity to re-host")

// Mode names how a recovery pass resolved one session.
type Mode string

// The recovery outcomes. ModeLocal and ModeReplan reuse the
// observability layer's repair-mode labels so events, counters and
// reports agree on vocabulary.
const (
	ModeLocal  Mode = obs.RepairModeLocal
	ModeReplan Mode = obs.RepairModeReplan
	ModeShed   Mode = "shed"
)

// Policy tunes the repair-vs-replan trade-off.
type Policy struct {
	// Gamma is the local-repair acceptance factor: a re-routed tree is
	// kept only when its operational cost is at most Gamma times the
	// damaged tree's. Gamma <= 0 disables local repair entirely (every
	// session goes straight to re-plan — the baseline the recovery
	// benchmark compares against); 1.0 accepts only repairs at original
	// cost or better.
	Gamma float64
	// RetryBudget bounds how many additional re-plan attempts follow a
	// failed commit of a replacement tree before the session is shed.
	// Each attempt plans against the then-current residuals.
	RetryBudget int
	// Backoff is the sleep before the first re-plan retry, doubling per
	// subsequent retry. 0 retries immediately — the right setting under
	// the engine's writer lock for simulated failures, where
	// residuals can only change through the recovery pass itself.
	Backoff time.Duration
}

// DefaultPolicy returns the recovery defaults: local repairs accepted
// up to 1.5x the original cost, two re-plan retries, no backoff.
func DefaultPolicy() Policy {
	return Policy{Gamma: 1.5, RetryBudget: 2, Backoff: 0}
}

// Outcome records how one affected session was resolved.
type Outcome struct {
	// RequestID identifies the session.
	RequestID int
	// Mode is how the session was resolved (local, replan, shed).
	Mode Mode
	// OldCost is the operational cost of the damaged tree, NewCost the
	// replacement's (0 when shed).
	OldCost, NewCost float64
	// Attempts counts plan attempts for this session (the local-repair
	// try plus each re-plan).
	Attempts int
	// Solution is the replacement realisation (nil when shed) — what a
	// controller reinstalls as flow rules.
	Solution *core.Solution
	// Err is the terminal error of a shed session; errors.Is(Err,
	// ErrDegraded) holds. nil for repaired sessions.
	Err error
}

// Report summarises one recovery pass.
type Report struct {
	// Outcomes holds one entry per affected session, in ascending
	// request-ID order.
	Outcomes []Outcome
	// Local, Replanned and Shed count outcomes by mode.
	Local, Replanned, Shed int
	// Duration is the wall-clock time of the pass (excluded from
	// Fingerprint so timing never perturbs determinism checks).
	Duration time.Duration
}

// Repaired reports how many sessions were re-hosted.
func (r *Report) Repaired() int { return r.Local + r.Replanned }

// Degraded returns the request IDs of shed sessions, in ascending
// order.
func (r *Report) Degraded() []int {
	var ids []int
	for _, o := range r.Outcomes {
		if o.Mode == ModeShed {
			ids = append(ids, o.RequestID)
		}
	}
	return ids
}

// Fingerprint serialises the pass's deterministic content — every
// outcome's ID, mode, costs and attempt count, but no durations — so
// the determinism oracle can compare recovery byte-for-byte across
// engine worker counts.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	for _, o := range r.Outcomes {
		b.WriteString("req=")
		b.WriteString(strconv.Itoa(o.RequestID))
		b.WriteString(" mode=")
		b.WriteString(string(o.Mode))
		b.WriteString(" old=")
		b.WriteString(strconv.FormatFloat(o.OldCost, 'g', -1, 64))
		b.WriteString(" new=")
		b.WriteString(strconv.FormatFloat(o.NewCost, 'g', -1, 64))
		b.WriteString(" attempts=")
		b.WriteString(strconv.Itoa(o.Attempts))
		b.WriteByte('\n')
	}
	return b.String()
}

// Recoverer drives recovery passes over one admitter.
type Recoverer struct {
	adm *core.Admitter
	obs *obs.AdmissionObs // nil-safe
	pol Policy
}

// New returns a recoverer repairing adm's live sessions under pol,
// reporting through o (nil disables instrumentation).
func New(adm *core.Admitter, o *obs.AdmissionObs, pol Policy) *Recoverer {
	if pol.RetryBudget < 0 {
		pol.RetryBudget = 0
	}
	return &Recoverer{adm: adm, obs: o, pol: pol}
}

// Policy returns the recoverer's policy.
func (r *Recoverer) Policy() Policy { return r.pol }

// Recover runs one pass: it repairs or sheds every live session whose
// allocation touches a failed resource and returns the per-session
// outcomes. arena supplies planning scratch (nil allocates fresh).
func (r *Recoverer) Recover(arena *core.PlanArena) *Report {
	start := time.Now()
	rep := &Report{}
	for _, id := range r.adm.AffectedLive() {
		sol, ok := r.adm.LiveSolution(id)
		if !ok {
			continue
		}
		r.obs.RepairAttempted(id)
		if err := r.adm.ReleaseLive(id); err != nil {
			// Release of a recorded allocation cannot fail on a
			// well-formed network; treat it as unhostable rather than
			// leak the session into an inconsistent state.
			rep.Outcomes = append(rep.Outcomes, r.shed(id, 0, sol.OperationalCost, err))
			rep.Shed++
			continue
		}
		out := r.recoverOne(id, sol, arena)
		switch out.Mode {
		case ModeLocal:
			rep.Local++
		case ModeReplan:
			rep.Replanned++
		default:
			rep.Shed++
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	rep.Duration = time.Since(start)
	r.obs.RecoveryPass(rep.Duration.Seconds())
	return rep
}

// recoverOne re-hosts one session whose allocation has already been
// released: local repair first, then the re-plan/retry ladder, then
// shed.
func (r *Recoverer) recoverOne(id int, old *core.Solution, arena *core.PlanArena) Outcome {
	nw := r.adm.Network()
	req := old.Request
	attempts := 0

	// Step 1: local repair — only single-server placements can keep
	// their VM pinned, and only when the policy admits repairs at all.
	if r.pol.Gamma > 0 && len(old.Servers) == 1 {
		attempts++
		rsol, err := core.RepairReroute(nw, req, old.Servers[0], arena)
		if err == nil && rsol.OperationalCost <= r.pol.Gamma*old.OperationalCost {
			if berr := r.adm.Rebind(id, rsol); berr == nil {
				r.obs.Repaired(id, obs.RepairModeLocal, rsol.OperationalCost)
				return Outcome{
					RequestID: id, Mode: ModeLocal,
					OldCost: old.OperationalCost, NewCost: rsol.OperationalCost,
					Attempts: attempts, Solution: rsol,
				}
			}
		}
	}

	// Step 2: full re-plan through the normal planner path, with
	// bounded retry + exponential backoff when the replacement cannot
	// be committed (each retry plans against the then-current
	// residuals).
	backoff := r.pol.Backoff
	var lastErr error
	for try := 0; try <= r.pol.RetryBudget; try++ {
		if try > 0 && backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		attempts++
		psol, err := r.adm.PlanOn(context.Background(), nw, req, arena)
		if err != nil {
			lastErr = err
			break // the planner's refusal is deterministic here: shed
		}
		if berr := r.adm.Rebind(id, psol); berr != nil {
			lastErr = berr
			continue
		}
		r.obs.Repaired(id, obs.RepairModeReplan, psol.OperationalCost)
		return Outcome{
			RequestID: id, Mode: ModeReplan,
			OldCost: old.OperationalCost, NewCost: psol.OperationalCost,
			Attempts: attempts, Solution: psol,
		}
	}
	return r.shed(id, attempts, old.OperationalCost, lastErr)
}

// shed drops a session whose resources were already released and
// builds its outcome.
func (r *Recoverer) shed(id, attempts int, oldCost float64, cause error) Outcome {
	_ = r.adm.DropLive(id)
	err := ErrDegraded
	if cause != nil {
		err = fmt.Errorf("%w: %w", ErrDegraded, cause)
	}
	r.obs.SessionShed(id, core.RejectReason(cause))
	return Outcome{
		RequestID: id, Mode: ModeShed,
		OldCost: oldCost, Attempts: attempts, Err: err,
	}
}
