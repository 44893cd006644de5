package core

import (
	"fmt"

	"nfvmcast/internal/graph"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// Fast rejection. Planning a doomed request costs the same Steiner
// sweep as planning an admissible one; under load, a meaningful share
// of arrivals is doomed for reasons visible in O(|servers|) — no
// server has the residual compute, or every server already prices over
// the admission threshold. FastRejecter lets a planner surface those
// decisions before the admitter pays for a work graph, shortest-path
// trees, or Steiner constructions.
//
// The contract is strict: FastReject may return a non-nil error only
// when the planner's full Plan would provably return the *exact
// same* error for this (view, request) pair — same sentinel chain,
// same message. A nil return promises nothing. This keeps decision
// sequences byte-identical with and without the fast path, which the
// determinism oracles assert.
type FastRejecter interface {
	FastReject(view *sdn.Network, req *multicast.Request) error
}

// fastReject consults the planner's FastRejecter (when implemented)
// with the plan timer already running, so an instrumented rejection is
// indistinguishable from a planned one apart from its latency.
func (a *Admitter) fastReject(view *sdn.Network, req *multicast.Request) error {
	fr, ok := a.planner.(FastRejecter)
	if !ok {
		return nil
	}
	return fr.FastReject(view, req)
}

// scanServers is the server scan behind every FastReject: whether some
// up server holds floor MHz of residual compute (anyEligible), and
// whether some such server prices under σ_v (anyUnderThreshold). It
// stops at the first server that is both, where a full plan is
// required to decide.
func (m CostModel) scanServers(view *sdn.Network, floor float64) (anyEligible, anyUnderThreshold bool) {
	view.VisitServers(func(v graph.NodeID) bool {
		if !view.ServerUp(v) || view.ResidualCompute(v) < floor {
			return true
		}
		anyEligible = true
		if m.ServerWeight(view, v) < m.SigmaV {
			anyUnderThreshold = true
			return false
		}
		return true
	})
	return anyEligible, anyUnderThreshold
}

// FastReject reports the cheap provable rejections of Online_CP: input
// validation, compute exhaustion (no up server holds the demand — the
// capacitated work graph would have no servers), and the whole server
// set pricing over σ_v (every candidate is skipped by threshold (a),
// so the plan ends at "no admissible server/tree"). Each mirrors the
// exact error Plan would produce; anything subtler returns nil
// and defers to the full plan.
func (p *CPPlanner) FastReject(view *sdn.Network, req *multicast.Request) error {
	if err := validateInput(view, req); err != nil {
		return fmt.Errorf("%w: %v", ErrRejected, err)
	}
	demand := req.ComputeDemandMHz()
	anyEligible, anyUnderThreshold := p.model.scanServers(view, demand)
	if !anyEligible {
		return fmt.Errorf("%w: %w: %0.f MHz demanded",
			ErrRejected, ErrComputeExhausted, demand)
	}
	if !anyUnderThreshold {
		return fmt.Errorf("%w: %w: no admissible server/tree",
			ErrRejected, ErrThresholdExceeded)
	}
	return nil
}

// FastReject is Online_CPK's counterpart; its full path words the same
// decisions differently, so the mirrored errors differ from
// CPPlanner's.
func (p *CPKPlanner) FastReject(view *sdn.Network, req *multicast.Request) error {
	if err := validateInput(view, req); err != nil {
		return fmt.Errorf("%w: %v", ErrRejected, err)
	}
	anyEligible, anyUnderThreshold := p.model.scanServers(view, req.ComputeDemandMHz())
	if !anyEligible {
		return fmt.Errorf("%w: %w", ErrRejected, ErrComputeExhausted)
	}
	if !anyUnderThreshold {
		return fmt.Errorf("%w: %w: every server over threshold or cut off",
			ErrRejected, ErrThresholdExceeded)
	}
	return nil
}
