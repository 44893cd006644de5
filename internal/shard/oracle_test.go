package shard_test

import (
	"testing"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/shard"
)

// TestShardDeterminismOracle pins the tentpole's determinism claim:
// per-shard transcript fingerprints are byte-identical across engine
// worker counts {1, 4, 8} when the router is driven sequentially. The workload mixes admissions
// from eight tenants (landing on four shards) with deterministic
// departures, so the transcripts exercise admits, rejects and departs.
func TestShardDeterminismOracle(t *testing.T) {
	const requests = 120
	shards := []string{"s0", "s1", "s2", "s3"}
	tenants := []string{"alpha", "bravo", "charlie", "delta",
		"echo", "foxtrot", "golf", "hotel"}

	run := func(workers int) shard.Report {
		t.Helper()
		r, err := shard.New(shard.Options{
			Shards:  shards,
			Build:   geantBuilder(),
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()

		reqs := testRequests(t, requests, 41)
		var admitted []*multicast.Request
		for i, req := range reqs {
			tn := tenants[i%len(tenants)]
			if _, aerr := r.Admit(tn, req); aerr == nil {
				admitted = append(admitted, req)
			}
			// Every fourth event, the oldest live session departs —
			// a deterministic churn pattern independent of decisions
			// made for other tenants' shards.
			if i%4 == 3 && len(admitted) > 0 {
				if _, derr := r.Release(admitted[0].ID); derr != nil {
					t.Fatalf("release %d: %v", admitted[0].ID, derr)
				}
				admitted = admitted[1:]
			}
		}
		return r.Report()
	}

	want := run(1)
	if want.Admitted == 0 || want.Departed == 0 {
		t.Fatalf("degenerate workload: admitted=%d departed=%d", want.Admitted, want.Departed)
	}
	// Decisions must actually spread across shards for the oracle to
	// mean anything.
	touched := 0
	for _, sr := range want.Shards {
		if sr.Lines > 0 {
			touched++
		}
	}
	if touched < 3 {
		t.Fatalf("only %d of %d shards saw traffic", touched, len(shards))
	}

	for _, workers := range []int{4, 8} {
		got := run(workers)
		for i, sr := range got.Shards {
			if sr.Fingerprint != want.Shards[i].Fingerprint {
				t.Errorf("workers=%d: shard %s fingerprint\n  got  %s\n  want %s (lines %d vs %d)",
					workers, sr.ID, sr.Fingerprint, want.Shards[i].Fingerprint,
					sr.Lines, want.Shards[i].Lines)
			}
		}
		if got.Merged != want.Merged {
			t.Errorf("workers=%d: merged fingerprint diverged", workers)
		}
	}
}

// TestShardReportMergedReflectsShardOrder pins the fan-in: Merged is a
// pure function of the per-shard fingerprints in ascending shard-ID
// order, so two identically-driven routers agree and any per-shard
// drift surfaces in Merged.
func TestShardReportMergedReflectsShardOrder(t *testing.T) {
	drive := func() shard.Report {
		r, err := shard.New(shard.Options{
			Shards: []string{"b", "a", "c"},
			Build:  geantBuilder(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i, req := range testRequests(t, 12, 77) {
			tn := []string{"t1", "t2", "t3"}[i%3]
			r.Admit(tn, req)
		}
		return r.Report()
	}
	a, b := drive(), drive()
	if a.Merged != b.Merged {
		t.Fatalf("identical drives disagree on Merged:\n  %s\n  %s", a.Merged, b.Merged)
	}
	for i := 1; i < len(a.Shards); i++ {
		if a.Shards[i-1].ID >= a.Shards[i].ID {
			t.Fatalf("report shards not in ascending ID order: %s >= %s",
				a.Shards[i-1].ID, a.Shards[i].ID)
		}
	}
}
