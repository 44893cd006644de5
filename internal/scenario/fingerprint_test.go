package scenario

import (
	"path/filepath"
	"testing"

	"nfvmcast/internal/daemon"
)

// TestScenarioFingerprintsPinned pins the full decision fingerprint of
// every shipped scenario at its shipped config, of the two tenant-mix
// scenarios forced onto a single engine, and the per-shard decision
// fingerprints a two-shard daemon reports after daemonScenario. The
// fingerprints hash the whole transcript, so any change to a decision,
// a cost bit or a transcript line moves them; a change that means to
// move them re-records this table and says so.
func TestScenarioFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"flash-crowd":              "4751c5afd6ca2fc288934913d101134336d202e46c94689249738353dd5fea33",
		"diurnal-rightsize":        "981010e8bed63f9847d706c102c393d8a339096940d37a59c306cdfcda285034",
		"regional-failure":         "212150257fb2f7bae1253249693d2c13a886b0f3fafe741b3ee7b820ef3d89e9",
		"rolling-drain":            "6da78789a71a1602f4d1ccc54cfbd060dc7cacf37474e0a53e1486de64d0fbad",
		"multi-tenant":             "931c03c68ebaab0d5e41fd9f3865c230f192c97e06c18fb1de709b2dc9da5aa0",
		"rule-limited":             "3dffb1471f8eabdabdd7c3a7f15dcea1772a18f477ca1489c3cfee469321bd39",
		"sharded-tenants":          "412900d9f92224dbf55d49bc35d911367f6a6e355da9557ffe25ccfced8c515d",
		"multi-tenant/shards=1":    "931c03c68ebaab0d5e41fd9f3865c230f192c97e06c18fb1de709b2dc9da5aa0",
		"sharded-tenants/shards=1": "2231054eb974d6641a6b96bfedfec61ac188cb0e308d3a2e86341c2eecadf13f",
	}
	type run struct {
		key string
		cfg *Config
	}
	var runs []run
	for _, cfg := range Library() {
		runs = append(runs, run{cfg.Name, cfg})
	}
	for _, name := range []string{"multi-tenant", "sharded-tenants"} {
		cfg, ok := LibraryConfig(name)
		if !ok {
			t.Fatalf("library scenario %q missing", name)
		}
		cfg.Shards = 1
		runs = append(runs, run{name + "/shards=1", cfg})
	}
	for _, r := range runs {
		r := r
		t.Run(r.key, func(t *testing.T) {
			t.Parallel()
			res, err := Run(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fingerprint != want[r.key] {
				t.Errorf("fingerprint %s, pinned %s", res.Fingerprint, want[r.key])
			}
		})
	}

	t.Run("daemon-smoke", func(t *testing.T) {
		shardWant := map[string]string{
			"s0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"s1": "8170f9e18f94efc5b18ad26ad4ef40b077493e8e7e4859dcc4af6bfdab342901",
		}
		cfg := daemonScenario()
		_, base := startDaemon(t, daemon.Config{
			Topology: "geant", Seed: cfg.Seed, Policy: cfg.Policy,
			Shards: 2, WALDir: filepath.Join(t.TempDir(), "wal"), NoSync: true,
		})
		res, err := RunDaemon(cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ShardReports) != len(shardWant) {
			t.Fatalf("daemon reported %d shards, want %d", len(res.ShardReports), len(shardWant))
		}
		for _, sr := range res.ShardReports {
			if sr.Fingerprint != shardWant[sr.ID] {
				t.Errorf("shard %s fingerprint %s, pinned %s", sr.ID, sr.Fingerprint, shardWant[sr.ID])
			}
		}
	})
}
