package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/testutil"
)

// snapshotFiles lists the snapshot files of shard s0's log directory.
func snapshotFiles(t *testing.T, walDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(walDir, "shard-s0"))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			snaps = append(snaps, e.Name())
		}
	}
	return snaps
}

// TestSnapshotUpkeepOffTheAckPath: a handler only signals that snapshot
// upkeep is due. With a snapshot due and the engine's writer held busy —
// so that taking the snapshot would have to wait — kickUpkeep returns
// at once, and the upkeep goroutine takes the snapshot when the writer
// frees up.
func TestSnapshotUpkeepOffTheAckPath(t *testing.T) {
	const cadence = 4
	walDir := filepath.Join(t.TempDir(), "wal")
	srv, base := startServer(t, Config{
		Topology: "geant", Seed: 42, Policy: "SP",
		WALDir: walDir, SnapshotEvery: cadence, NoSync: true,
	})
	// Fill the cadence through the router, which asks for no upkeep.
	for id := 1; id <= cadence; id++ {
		var sub SubmitRequest
		if err := json.Unmarshal([]byte(submitBody("acme", id)), &sub); err != nil {
			t.Fatal(err)
		}
		req, err := sub.Request.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Router().AdmitContext(testutil.Context(t), sub.Tenant, req); err != nil {
			t.Fatal(err)
		}
	}
	if !srv.logs["s0"].ShouldSnapshot() || len(snapshotFiles(t, walDir)) != 0 {
		t.Fatal("set-up: a snapshot should be due and none taken")
	}

	inside, gate := make(chan struct{}), make(chan struct{})
	held := make(chan error, 1)
	go func() {
		held <- srv.Router().Engine("s0").SnapshotState(func(*sdn.Network, []*core.Solution) {
			close(inside)
			<-gate
		})
	}()
	<-inside
	returned := make(chan struct{})
	go func() { defer close(returned); srv.kickUpkeep(); srv.kickUpkeep() }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		close(gate)
		t.Fatal("kickUpkeep waited for the snapshot: upkeep is on the ack path")
	}
	close(gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(snapshotFiles(t, walDir)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the upkeep goroutine never took the snapshot that was due")
		}
		time.Sleep(time.Millisecond)
	}

	// Over the wire the same holds end to end: acks come back and
	// snapshots keep up in the background.
	for id := cadence + 1; id <= 4*cadence; id++ {
		if resp, body := doJSON(t, "POST", base+"/v1/submit", submitBody("acme", id)); resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d %s", id, resp.StatusCode, body)
		}
	}
	_, metrics := doJSON(t, "GET", base+"/metrics", "")
	for _, name := range []string{"nfv_wal_durable_lsn", "nfv_wal_fsync_seconds_count", "nfv_wal_snapshots_total"} {
		if !strings.Contains(string(metrics), fmt.Sprintf("%s{shard=\"s0\"}", name)) {
			t.Errorf("/metrics lacks %s for shard s0", name)
		}
	}
}
