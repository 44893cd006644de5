package scenario

import (
	"context"
	"net"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"nfvmcast/internal/daemon"
)

// startDaemon boots an nfvmcastd server on a random localhost port.
func startDaemon(t *testing.T, dcfg daemon.Config) (*daemon.Server, string) {
	t.Helper()
	srv, err := daemon.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, "http://" + ln.Addr().String()
}

// daemonScenario is a small two-tenant workload with a transient link
// failure, on the same (topology, seed) substrate the daemon builds.
func daemonScenario() *Config {
	return &Config{
		Name:         "daemon-smoke",
		Topology:     TopologySpec{Name: "geant"},
		Policy:       "SP",
		Seed:         19,
		HorizonHours: 3,
		Tenants: []Tenant{
			{Name: "gold", Phases: []Phase{{Kind: PhaseSteady, StartHours: 0, EndHours: 3, RatePerHour: 12}}},
			{Name: "bronze", Phases: []Phase{{Kind: PhaseSteady, StartHours: 0, EndHours: 3, RatePerHour: 8}}},
		},
		Failures: []FailureStep{
			{Kind: "link", AtHours: 1, DurationHours: 0.5, ID: 7},
		},
	}
}

// TestRunDaemonScenario: one scenario definition drives a live daemon
// over HTTP; the workload completes, the books balance on both sides
// of the wire, and the daemon's WAL carries the whole run.
func TestRunDaemonScenario(t *testing.T) {
	cfg := daemonScenario()
	walDir := filepath.Join(t.TempDir(), "wal")
	dcfg := daemon.Config{
		Topology: "geant", Seed: cfg.Seed, Policy: cfg.Policy,
		Shards: 2, WALDir: walDir, NoSync: true,
	}
	srv, base := startDaemon(t, dcfg)

	res, err := RunDaemon(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatal("daemon-mode run admitted nothing")
	}
	if res.Admitted+res.Rejected != res.Arrivals {
		t.Fatalf("books don't balance: admitted %d + rejected %d != arrivals %d",
			res.Admitted, res.Rejected, res.Arrivals)
	}
	if res.FinalLive != 0 {
		t.Fatalf("%d sessions live after horizon drain", res.FinalLive)
	}
	if len(res.ShardReports) != 2 {
		t.Fatalf("want 2 shard reports from the daemon, got %d", len(res.ShardReports))
	}
	var daemonAdmitted, daemonLive int
	for _, sr := range res.ShardReports {
		daemonAdmitted += sr.Admitted
		daemonLive += sr.Live
	}
	if daemonAdmitted != res.Admitted {
		t.Fatalf("daemon admitted %d, harness counted %d", daemonAdmitted, res.Admitted)
	}
	if daemonLive != 0 {
		t.Fatalf("daemon still holds %d live sessions after the drain", daemonLive)
	}
	for tenant, ts := range res.PerTenant {
		if ts.Admitted == 0 {
			t.Errorf("tenant %s admitted nothing", tenant)
		}
	}
	_ = srv
}

// TestRunDaemonDeterministic: two fresh daemons fed the same scenario
// agree on the harness transcript fingerprint AND on the daemons' own
// per-shard decision fingerprints.
func TestRunDaemonDeterministic(t *testing.T) {
	cfg := daemonScenario()
	run := func(walDir string) *Result {
		_, base := startDaemon(t, daemon.Config{
			Topology: "geant", Seed: cfg.Seed, Policy: cfg.Policy,
			Shards: 2, WALDir: walDir, NoSync: true,
		})
		res, err := RunDaemon(cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(filepath.Join(t.TempDir(), "wal1"))
	r2 := run(filepath.Join(t.TempDir(), "wal2"))
	if r1.Fingerprint != r2.Fingerprint {
		t.Errorf("harness fingerprints diverge:\n%s\n%s", r1.Fingerprint, r2.Fingerprint)
	}
	if len(r1.ShardReports) != len(r2.ShardReports) {
		t.Fatalf("shard report counts diverge: %d vs %d", len(r1.ShardReports), len(r2.ShardReports))
	}
	for i := range r1.ShardReports {
		a, b := r1.ShardReports[i], r2.ShardReports[i]
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("shard %s decision fingerprints diverge", a.ID)
		}
	}
}

// admitLine picks the decision out of an admit transcript line: request
// ID, exact cost and servers, whatever the line's shard field says.
var admitLine = regexp.MustCompile(`admit req=(\d+) tenant=\S+(?: shard=\S+)? (cost=\S+ servers=\[[^\]]*\])`)

// admissions lists a run's admissions in transcript order.
func admissions(res *Result) []string {
	var out []string
	for _, m := range admitLine.FindAllStringSubmatch(res.Transcript(), -1) {
		out = append(out, "req="+m[1]+" "+m[2])
	}
	return out
}

// TestRunDaemonMatchesInProcess is the cross-deployment oracle: one
// scenario run in-process and again through a daemon serving the same
// substrate, policy and shard count must make the same decisions — the
// same totals, the same per-tenant books and the same ordered
// admissions down to the cost bits. Sessions the daemon's recovery
// shed are learned at release and counted as shed, so the daemon's
// books close exactly like the in-process ones.
func TestRunDaemonMatchesInProcess(t *testing.T) {
	for _, name := range []string{"flash-crowd", "regional-failure", "rolling-drain", "multi-tenant", "sharded-tenants"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg, ok := LibraryConfig(name)
			if !ok {
				t.Fatalf("library scenario %q missing", name)
			}
			in, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, base := startDaemon(t, daemon.Config{
				Topology: cfg.Topology.Name, Nodes: cfg.Topology.Size, Seed: cfg.Seed, Policy: cfg.Policy,
				Shards: max(cfg.Shards, 1),
				WALDir: filepath.Join(t.TempDir(), "wal"), NoSync: true,
			})
			wire, err := RunDaemon(cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range wire.Violations {
				t.Errorf("daemon-mode violation: %s", v)
			}
			got := [5]int{wire.Arrivals, wire.Admitted, wire.Rejected, wire.Departed, wire.Shed}
			want := [5]int{in.Arrivals, in.Admitted, in.Rejected, in.Departed, in.Shed}
			if got != want {
				t.Errorf("daemon arrivals/admitted/rejected/departed/shed = %v, in-process %v", got, want)
			}
			if wire.Admitted != wire.Departed+wire.Shed {
				t.Errorf("daemon books: admitted %d != departed %d + shed %d", wire.Admitted, wire.Departed, wire.Shed)
			}
			for tenant, ts := range in.PerTenant {
				if *wire.PerTenant[tenant] != *ts {
					t.Errorf("tenant %s: daemon %+v, in-process %+v", tenant, *wire.PerTenant[tenant], *ts)
				}
			}
			a, b := admissions(in), admissions(wire)
			if len(a) != in.Admitted {
				t.Fatalf("parsed %d admissions from the in-process transcript, want %d", len(a), in.Admitted)
			}
			if len(a) != len(b) {
				t.Fatalf("in-process admitted %d sessions, daemon %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("admission %d: in-process %s, daemon %s", i, a[i], b[i])
				}
			}
		})
	}
}

// TestRunDaemonRejectsResize: resize steps need residual visibility
// the wire API does not expose; daemon mode must refuse them up front
// rather than half-apply.
func TestRunDaemonRejectsResize(t *testing.T) {
	cfg := daemonScenario()
	cfg.Failures = []FailureStep{{Kind: "resize", AtHours: 1, Scale: 0.5}}
	if _, err := RunDaemon(cfg, "http://127.0.0.1:0"); err == nil {
		t.Fatal("resize step accepted in daemon mode")
	}
}
