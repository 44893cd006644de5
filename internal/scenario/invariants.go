package scenario

import (
	"fmt"
	"math"

	"nfvmcast/internal/core"
	"nfvmcast/internal/shard"
)

// The harness's continuous invariants, checked over the target's
// in-process cells (a remote target has none, so only its books and
// the drained end state are checked). Each breach is recorded in
// Result.Violations rather than aborting the run, so one run surfaces
// every breach; tests then assert the list is empty.
//
//   - residual bounds (every event): 0 <= free <= cap on every link
//     and server of every cell — an allocator double-release or
//     over-commit shows up here first;
//   - conservation (every checkEvery events and at the end): per cell,
//     cap − free equals the sum of allocations of the engine's live
//     table, and that table matches the executor's independent live
//     view and the target's owner map — the live table and the residual
//     network must tell the same story;
//   - session accounting: a cell that exposes its obs counters closes
//     the equation admitted − departed − shed = live, and the live
//     gauge and the engine agree on the count;
//   - fleet totals: every live session sits in exactly one cell, and a
//     fleet report's counts match the executor's.

// tolerance for float residual comparisons: allocations are sums of
// O(live·tree) float64 terms.
const eps = 1e-6

// maxViolations caps the report so a systemic breach doesn't drown the
// run in millions of identical lines.
const maxViolations = 32

func (x *executor) violatef(format string, args ...any) {
	if len(x.res.Violations) < maxViolations {
		x.res.Violations = append(x.res.Violations, fmt.Sprintf(format, args...))
	}
}

// checkBounds runs the cheap residual-bounds sweep on every cell.
func (x *executor) checkBounds(at float64) {
	for _, c := range x.cells {
		c.resources(func(kind string, id int, free, cap float64) {
			if free < -eps || free > cap+eps || math.IsNaN(free) {
				x.violatef("t=%s%s %s %d residual %g outside [0, %g]", fmtG(at), shardField(c.id), kind, id, free, cap)
			}
		})
	}
}

// checkConservation reconciles, per cell, independent views of "who
// holds what": the engine's live table, the network's residuals, the
// executor's live view, the target's owner map and (where exposed) the
// obs counters — then closes the fleet equation. The error return is
// for watchdog trips only; inconsistencies land in Violations.
func (x *executor) checkConservation(at float64) error {
	if len(x.cells) == 0 {
		// Nothing in-process to reconcile, and a remote fleet's counters
		// include sheds the executor only learns of at release.
		return nil
	}
	// cap − free cannot be more precise than cap's ulp, so the tolerance
	// carries a term in the capacity's own magnitude.
	tol := func(want, cap float64) float64 {
		return eps*math.Max(1, math.Abs(want)) + 1e-9*math.Abs(cap)
	}
	total := 0
	for _, c := range x.cells {
		var lives []*core.Solution
		if err := x.guard("Lives", at, func() error { lives = c.eng.Lives(); return nil }); err != nil {
			return fmt.Errorf("scenario %q: %w", x.cfg.Name, err)
		}
		total += len(lives)
		want := map[string]map[int]float64{"link": {}, "server": {}}
		for _, sol := range lives {
			id := sol.Request.ID
			if owner, ok := x.live[id]; !ok {
				x.violatef("t=%s%s live table holds req %d the executor departed", fmtG(at), shardField(c.id), id)
			} else if owner != c.id {
				x.violatef("t=%s%s live table holds req %d the executor saw admitted by %q", fmtG(at), shardField(c.id), id, owner)
			}
			if owner := x.t.owner(id); owner != c.id {
				x.violatef("t=%s%s live table holds req %d the target's owner map gives to %q", fmtG(at), shardField(c.id), id, owner)
			}
			alloc := core.AllocationFor(sol.Request, sol.Tree)
			for _, l := range alloc.Links {
				want["link"][l.Edge] += l.Mbps
			}
			for _, s := range alloc.Servers {
				want["server"][s.Node] += s.MHz
			}
		}
		c.resources(func(kind string, id int, free, cap float64) {
			if got, w := cap-free, want[kind][id]; math.Abs(got-w) > tol(w, cap) {
				x.violatef("t=%s%s %s %d allocated %g but live table sums to %g", fmtG(at), shardField(c.id), kind, id, got, w)
			}
		})

		// Session accounting: counters close admitted − departed − shed =
		// live, and every view agrees on the count.
		if c.aobs != nil {
			adm, dep, shed := c.aobs.AdmittedCount(), c.aobs.DepartedCount(), c.aobs.ShedCount()
			if int(adm)-int(dep)-int(shed) != len(lives) {
				x.violatef("t=%s%s obs counters admitted=%d departed=%d shed=%d but %d sessions live",
					fmtG(at), shardField(c.id), adm, dep, shed, len(lives))
			}
			if gauge := int(c.aobs.LiveSessions()); gauge != len(lives) {
				x.violatef("t=%s%s live gauge %d disagrees with live table %d", fmtG(at), shardField(c.id), gauge, len(lives))
			}
		}
		var count int
		if err := x.guard("LiveCount", at, func() error { count = c.eng.LiveCount(); return nil }); err != nil {
			return fmt.Errorf("scenario %q: %w", x.cfg.Name, err)
		}
		if count != len(lives) {
			x.violatef("t=%s%s LiveCount %d disagrees with live table %d", fmtG(at), shardField(c.id), count, len(lives))
		}
	}

	// Live-table membership == the executor's view: every session a
	// cell holds matched the executor's owner above, so equal totals
	// mean no session is missing from any cell. The fleet's own report
	// then closes against the executor's counts.
	if total != len(x.live) {
		x.violatef("t=%s cells hold %d sessions, executor tracks %d", fmtG(at), total, len(x.live))
	}
	var rep *shard.Report
	if err := x.guard("Report", at, func() (err error) { rep, err = x.t.report(); return err }); err != nil {
		return fmt.Errorf("scenario %q: report: %w", x.cfg.Name, err)
	}
	if rep == nil {
		return nil
	}
	if rep.Live != len(x.live) {
		x.violatef("t=%s fleet report live=%d, executor tracks %d", fmtG(at), rep.Live, len(x.live))
	}
	if rep.Admitted != x.res.Admitted || rep.Rejected != x.res.Rejected || rep.Departed != x.res.Departed {
		x.violatef("t=%s fleet report admitted=%d rejected=%d departed=%d, executor counts %d/%d/%d",
			fmtG(at), rep.Admitted, rep.Rejected, rep.Departed, x.res.Admitted, x.res.Rejected, x.res.Departed)
	}
	return nil
}

// checkDrained asserts the end state: with every session departed the
// residual network of every cell must be whole again (free == cap
// everywhere) and the flow tables empty.
func (x *executor) checkDrained() {
	if len(x.live) != 0 {
		x.violatef("end: %d sessions still live after horizon drain", len(x.live))
		return
	}
	for _, c := range x.cells {
		c.resources(func(kind string, id int, free, cap float64) {
			if diff := cap - free; math.Abs(diff) > eps {
				x.violatef("end:%s %s %d still has %g allocated after all departures", shardField(c.id), kind, id, diff)
			}
		})
	}
	if x.ctrl != nil && x.ctrl.TotalRules() != 0 {
		x.violatef("end: %d flow rules still installed after all departures", x.ctrl.TotalRules())
	}
}
