package obs

import (
	"testing"
)

// TestReconfiguredHook pins the reconfiguration instrumentation: the
// nfv_reconfigurations_total counter, the ReconfiguredCount accessor
// and the "reconfigured" event the migration pass emits per session —
// plus recovery-pass hooks that share the maintenance surface.
func TestReconfiguredHook(t *testing.T) {
	reg := NewRegistry()
	ring := NewRingSink(16)
	o := NewAdmissionObs(reg, "Reconf_CP", AdmissionObsOptions{Events: ring})

	o.Reconfigured(7, []int{2, 5}, 12.5)
	o.Reconfigured(9, []int{3}, 4)
	if got := o.ReconfiguredCount(); got != 2 {
		t.Fatalf("ReconfiguredCount = %d, want 2", got)
	}
	cv := reg.CounterValues()
	if got := cv[`nfv_reconfigurations_total{policy="Reconf_CP"}`]; got != 2 {
		t.Fatalf("nfv_reconfigurations_total = %d, want 2", got)
	}
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	ev := evs[0]
	if ev.Type != Reconfigured || ev.Request != 7 || ev.Cost != 12.5 ||
		len(ev.Servers) != 2 || ev.Servers[0] != 2 || ev.Servers[1] != 5 {
		t.Fatalf("malformed reconfigured event: %+v", ev)
	}

	// Adjacent maintenance hooks share the lifecycle surface.
	o.RepairAttempted(7)
	o.Repaired(7, RepairModeReplan, 3)
	o.SessionShed(9, "degraded")
	o.RecoveryPass(0.25)
	if o.ShedCount() != 1 {
		t.Fatalf("ShedCount = %d, want 1", o.ShedCount())
	}
	if o.Shard() != "" {
		t.Fatalf("Shard = %q on unsharded obs", o.Shard())
	}

	// Nil-receiver contract for the new hooks.
	var nilObs *AdmissionObs
	nilObs.Reconfigured(1, nil, 0)
	nilObs.RepairAttempted(1)
	nilObs.Repaired(1, RepairModeLocal, 0)
	nilObs.SessionShed(1, "x")
	nilObs.RecoveryPass(0)
	if nilObs.ReconfiguredCount() != 0 || nilObs.ShedCount() != 0 || nilObs.Shard() != "" {
		t.Fatal("nil accessors must return zero values")
	}
}
