package core

import (
	"context"
	"errors"
	"fmt"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/sdn"
)

// Context-aware planning. Planning is the expensive half of admission
// (one Steiner construction per candidate server, one subset sweep for
// Appro_Multi), so it is the natural cancellation point: every
// Planner.Plan checks its context between candidate evaluations and
// aborts with the context's error (already-started Steiner
// constructions run to completion). Cancellation is not an admission
// decision — a canceled plan satisfies neither IsRejection nor any
// rejection sentinel, and the admitter does not count it.

// canceled wraps a context error so callers can both recognise the
// cancellation (errors.Is context.Canceled / DeadlineExceeded) and see
// where planning stopped.
func canceled(err error) error {
	return fmt.Errorf("core: planning canceled: %w", err)
}

// IsCanceled reports whether err stems from context cancellation or
// deadline expiry rather than an admission decision.
func IsCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ApproMultiContext is ApproMulti with cancellation: the candidate
// subset sweep checks ctx between subset evaluations and aborts with an
// error wrapping ctx.Err(). Results are identical to ApproMulti when
// ctx is never canceled.
func ApproMultiContext(
	ctx context.Context, nw *sdn.Network, req *multicast.Request, opts Options,
) (*Solution, error) {
	opts.ctx = ctx
	return ApproMulti(nw, req, opts)
}
