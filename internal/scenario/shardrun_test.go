package scenario

import "testing"

// TestShardedFingerprintDeterminism extends the harness's headline
// determinism property to the sharded path: the full decision
// transcript — including each shard's fan-in digest — is byte-identical
// across engine worker counts, because the runner drives arrivals
// sequentially and per-shard transcripts are worker-invariant (the
// shard package's oracle property).
func TestShardedFingerprintDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("three full sharded runs")
	}
	var base *Result
	for _, workers := range []int{1, 4, 8} {
		cfg, ok := LibraryConfig("sharded-tenants")
		if !ok {
			t.Fatal("library scenario sharded-tenants missing")
		}
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("workers=%d invariant violation: %s", workers, v)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Fingerprint != base.Fingerprint {
			t.Errorf("workers=%d fingerprint %s != baseline %s\ntranscript diff hint:\n%s",
				workers, res.Fingerprint, base.Fingerprint,
				firstTranscriptDiff(base.Transcript(), res.Transcript()))
		}
		for i, sr := range res.ShardReports {
			if sr.Fingerprint != base.ShardReports[i].Fingerprint {
				t.Errorf("workers=%d shard %s fingerprint diverged", workers, sr.ID)
			}
		}
	}
}

// TestSingleShardIsTheSingleEnginePath pins the compatibility contract:
// shards 0 and 1 both take the single-engine path and produce
// byte-identical results — opting a config into the sharding schema
// without actually splitting it changes nothing.
func TestSingleShardIsTheSingleEnginePath(t *testing.T) {
	run := func(shards int) *Result {
		cfg, ok := LibraryConfig("multi-tenant")
		if !ok {
			t.Fatal("library scenario multi-tenant missing")
		}
		cfg.Shards = shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r0, r1 := run(0), run(1)
	if r0.Fingerprint != r1.Fingerprint {
		t.Errorf("shards=0 and shards=1 fingerprints differ: %s vs %s\n%s",
			r0.Fingerprint, r1.Fingerprint, firstTranscriptDiff(r0.Transcript(), r1.Transcript()))
	}
	if len(r1.ShardReports) != 0 {
		t.Errorf("single-engine path must not produce shard reports, got %d", len(r1.ShardReports))
	}
}
