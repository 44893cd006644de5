package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/topology"
)

// Test substrate: identically-seeded networks, so every rebuild of the
// "base topology" is byte-identical to the one the logged run started
// from — the same contract the daemon's boot recovery relies on.

func testNetwork(tb testing.TB, topoName string, seed int64) *sdn.Network {
	tb.Helper()
	var (
		topo *topology.Topology
		err  error
	)
	switch topoName {
	case "geant":
		topo = topology.GEANT()
	case "waxman":
		topo, err = topology.WaxmanDegree(50, topology.DefaultAvgDegree, 0.14, seed)
		if err != nil {
			tb.Fatal(err)
		}
	default:
		tb.Fatalf("unknown topology %q", topoName)
	}
	nw, err := sdn.NewNetwork(topo, sdn.DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}

// testEngine builds a journaled SP engine on the seeded base topology,
// with the recovery ladder on so the workload produces repaired/shed
// records too.
func testEngine(tb testing.TB, topoName string, seed int64, workers int, j engine.Journal) *engine.Engine {
	return policyEngine(tb, topoName, seed, "SP", workers, 1, j)
}

// policyEngine is testEngine for any registered policy and commit
// batch window.
func policyEngine(tb testing.TB, topoName string, seed int64, policy string, workers, batch int, j engine.Journal) *engine.Engine {
	tb.Helper()
	nw := testNetwork(tb, topoName, seed)
	planner, err := core.NewPlanner(policy, core.PlannerOptions{Nodes: nw.NumNodes()})
	if err != nil {
		tb.Fatal(err)
	}
	opts := []engine.Option{
		engine.WithWorkers(workers),
		engine.WithBatchWindow(batch),
		engine.WithRecovery(recov.DefaultPolicy()),
	}
	if j != nil {
		opts = append(opts, engine.WithJournal(j))
	}
	return engine.NewWith(nw, planner, opts...)
}

// checkpoint is the oracle's ground truth after one acked operation:
// the log position, the state fingerprint the engine reported at that
// moment, and a copy of the log directory exactly as it was on disk.
// The copy is taken BEFORE any snapshot the cadence triggers, so it is
// a faithful image of the disk a crash at that instant leaves behind
// (snapshots from earlier checkpoints are in it; the one covering this
// LSN is not yet).
type checkpoint struct {
	lsn uint64
	fp  string
	dir string
}

// driveOps runs a deterministic mixed workload — admissions,
// departures, link failure (the recovery ladder sheds/repairs inline),
// link repair, capacity growth, periodic snapshots — serially against
// eng, checkpointing after every effective operation. Serial driving
// keeps every checkpoint well-defined at any worker count. idBase
// offsets generated request IDs so a continuation run after recovery
// cannot collide with sessions already live.
func driveOps(tb testing.TB, eng *engine.Engine, l *Log, copyRoot, topoName string, nOps int, seed int64, idBase int) []checkpoint {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := testNetwork(tb, topoName, seed) // read-only probe for sizes
	gen, err := multicast.NewGenerator(base.NumNodes(), multicast.OnlineGeneratorConfig(), seed+1)
	if err != nil {
		tb.Fatal(err)
	}
	servers := base.Servers()
	// Capacities only ever grow (tracked here), so a resize can never
	// dip below the allocated share and fail validation.
	linkCap := make([]float64, base.NumEdges())
	for e := range linkCap {
		linkCap[e] = base.BandwidthCap(e)
	}
	srvCap := make(map[int]float64, len(servers))
	for _, v := range servers {
		srvCap[v] = base.ComputeCap(v)
	}
	var downLinks []int

	var cps []checkpoint
	for i := 0; i < nOps; i++ {
		switch p := rng.Intn(100); {
		case p < 55: // admit
			req, gerr := gen.Next()
			if gerr != nil {
				tb.Fatal(gerr)
			}
			req.ID += idBase
			if _, aerr := eng.Admit(req); aerr != nil && !core.IsRejection(aerr) {
				tb.Fatalf("op %d: admit: %v", i, aerr)
			}
		case p < 75: // depart a live session
			lives := eng.Lives()
			if len(lives) == 0 {
				continue
			}
			id := lives[rng.Intn(len(lives))].Request.ID
			if _, derr := eng.Depart(id); derr != nil {
				tb.Fatalf("op %d: depart %d: %v", i, id, derr)
			}
		case p < 85: // fail a link (recovery ladder runs inline)
			e := rng.Intn(base.NumEdges())
			if aerr := eng.Apply(engine.Mutation{Kind: engine.LinkState, ID: e, Up: false}); aerr != nil {
				tb.Fatalf("op %d: fail link %d: %v", i, e, aerr)
			}
			downLinks = append(downLinks, e)
		case p < 92: // repair a failed link
			if len(downLinks) == 0 {
				continue
			}
			k := rng.Intn(len(downLinks))
			e := downLinks[k]
			downLinks = append(downLinks[:k], downLinks[k+1:]...)
			if aerr := eng.Apply(engine.Mutation{Kind: engine.LinkState, ID: e, Up: true}); aerr != nil {
				tb.Fatalf("op %d: repair link %d: %v", i, e, aerr)
			}
		default: // grow a capacity
			if rng.Intn(2) == 0 {
				e := rng.Intn(base.NumEdges())
				linkCap[e] *= 1.1 + rng.Float64()*0.4
				if aerr := eng.Apply(engine.Mutation{Kind: engine.LinkCapacity, ID: e, Capacity: linkCap[e]}); aerr != nil {
					tb.Fatalf("op %d: resize link %d: %v", i, e, aerr)
				}
			} else {
				v := servers[rng.Intn(len(servers))]
				srvCap[v] *= 1.1 + rng.Float64()*0.4
				if aerr := eng.Apply(engine.Mutation{Kind: engine.ServerCapacity, ID: v, Capacity: srvCap[v]}); aerr != nil {
					tb.Fatalf("op %d: resize server %d: %v", i, v, aerr)
				}
			}
		}
		fp, ferr := Fingerprint(eng)
		if ferr != nil {
			tb.Fatalf("op %d: fingerprint: %v", i, ferr)
		}
		cp := checkpoint{lsn: l.LastLSN(), fp: fp}
		if copyRoot != "" {
			cp.dir = filepath.Join(copyRoot, fmt.Sprintf("cp-%04d", len(cps)))
			copyDir(tb, l.Dir(), cp.dir)
		}
		cps = append(cps, cp)
		if l.ShouldSnapshot() {
			if _, serr := l.Snapshot(eng); serr != nil {
				tb.Fatalf("op %d: snapshot: %v", i, serr)
			}
		}
	}
	return cps
}

// copyDir snapshots a log directory byte-for-byte (serial driving
// guarantees no append is in flight).
func copyDir(tb testing.TB, src, dst string) {
	tb.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		tb.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		data, rerr := os.ReadFile(filepath.Join(src, e.Name()))
		if rerr != nil {
			tb.Fatal(rerr)
		}
		if werr := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); werr != nil {
			tb.Fatal(werr)
		}
	}
}

// recoverDir opens dir and replays it into a fresh engine on the same
// seeded base topology, returning the recovered engine, its log and
// the replay stats.
func recoverDir(tb testing.TB, dir, topoName string, seed int64, workers int) (*engine.Engine, *Log, *ReplayStats) {
	tb.Helper()
	l, err := Open(dir, Options{SnapshotEvery: -1, NoSync: true})
	if err != nil {
		tb.Fatalf("reopen %s: %v", dir, err)
	}
	eng := testEngine(tb, topoName, seed, workers, l.Journal())
	stats, err := l.Recover(eng)
	if err != nil {
		eng.Close()
		tb.Fatalf("recover %s: %v", dir, err)
	}
	return eng, l, stats
}

// boundary is one record's position in a segment file.
type boundary struct {
	lsn uint64
	end int // byte offset just past the record's frame
}

// boundaries lists every record boundary in one segment.
func boundaries(tb testing.TB, segPath string) []boundary {
	tb.Helper()
	data, err := os.ReadFile(segPath)
	if err != nil {
		tb.Fatal(err)
	}
	var out []boundary
	off := 0
	for off < len(data) {
		rec, next, rerr := readFrame(data, off)
		if rerr != nil {
			break
		}
		out = append(out, boundary{lsn: rec.LSN, end: next})
		off = next
	}
	return out
}

// killAt builds the disk image a crash at record boundary b leaves:
// the checkpoint copy with every segment after seg removed (they did
// not exist yet) and seg cut at the boundary (plus extraBytes of the
// following record for torn-write cases).
func killAt(tb testing.TB, cpDir, killDir string, segs []uint64, segIdx int, b boundary, extraBytes int) {
	tb.Helper()
	copyDir(tb, cpDir, killDir)
	scratch := &Log{dir: killDir}
	for _, later := range segs[segIdx+1:] {
		if err := os.Remove(scratch.segmentPath(later)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := os.Truncate(scratch.segmentPath(segs[segIdx]), int64(b.end+extraBytes)); err != nil {
		tb.Fatal(err)
	}
}

// TestKillAtEveryRecordBoundary is the crash-recovery oracle: the
// workload runs once with ground-truth fingerprints checkpointed after
// every acked operation, then every record boundary of the log is
// treated as a kill point — the on-disk bytes are cut there, recovery
// replays them into a fresh engine, and the recovered fingerprint must
// equal the runtime fingerprint of exactly that prefix. Worker count 4
// exercises the concurrent plan/commit path (still driven serially, so
// the prefix state at each boundary is well-defined). Small segments
// force rotation, and a tight snapshot cadence forces snapshot+suffix
// recoveries among the kill points. The Reconf_CP arm adds the
// migration pass that follows every Apply and 16-wide commit epochs.
func TestKillAtEveryRecordBoundary(t *testing.T) {
	type arm struct {
		topoName, policy string
		workers, batch   int
	}
	arms := []arm{{"geant", "SP", 1, 1}, {"geant", "SP", 4, 1}, {"waxman", "SP", 1, 1}, {"waxman", "SP", 4, 1},
		{"geant", "Reconf_CP", 4, 16}}
	for _, a := range arms {
		name := fmt.Sprintf("%s/workers=%d", a.topoName, a.workers)
		if a.policy != "SP" {
			name = fmt.Sprintf("%s/%s/workers=%d/batch=%d", a.topoName, a.policy, a.workers, a.batch)
		}
		topoName, workers := a.topoName, a.workers
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			seed := int64(41)
			dir := filepath.Join(t.TempDir(), "wal")
			copies := t.TempDir()
			l, err := Open(dir, Options{SegmentBytes: 16 << 10, SnapshotEvery: 40, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			eng := policyEngine(t, topoName, seed, a.policy, workers, a.batch, l.Journal())
			nOps := 140
			if topoName == "waxman" {
				nOps = 90 // second topology rides along at reduced volume
			}
			cps := driveOps(t, eng, l, copies, topoName, nOps, seed, 0)
			eng.Close()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l.LastLSN() == 0 {
				t.Fatal("workload appended no records")
			}

			// Ground truth per LSN. Several ops can share an LSN when
			// one changed no state; their fingerprints must agree.
			want := map[uint64]string{}
			for _, cp := range cps {
				if prev, ok := want[cp.lsn]; ok && prev != cp.fp {
					t.Fatalf("two checkpoints at lsn %d with different fingerprints", cp.lsn)
				}
				want[cp.lsn] = cp.fp
			}

			tested, matched := 0, 0
			var prevLSN uint64
			for i, cp := range cps {
				scratch := &Log{dir: cp.dir}
				segs, serr := scratch.segments()
				if serr != nil {
					t.Fatal(serr)
				}
				for si, first := range segs {
					for _, b := range boundaries(t, scratch.segmentPath(first)) {
						if b.lsn <= prevLSN || b.lsn > cp.lsn {
							continue
						}
						killDir := filepath.Join(t.TempDir(), fmt.Sprintf("kill-%d-%d", i, b.lsn))
						killAt(t, cp.dir, killDir, segs, si, b, 0)
						reng, rl, stats := recoverDir(t, killDir, topoName, seed, workers)
						if stats.LastLSN != b.lsn {
							t.Fatalf("kill at lsn %d: recovered to lsn %d", b.lsn, stats.LastLSN)
						}
						if fp, ok := want[b.lsn]; ok {
							got, ferr := Fingerprint(reng)
							if ferr != nil {
								t.Fatal(ferr)
							}
							if got != fp {
								t.Fatalf("kill at lsn %d: recovered fingerprint %s.. want %s..",
									b.lsn, got[:16], fp[:16])
							}
							matched++
						}
						reng.Close()
						rl.Close()
						tested++
					}
				}
				prevLSN = cp.lsn
			}
			if tested == 0 || matched == 0 {
				t.Fatalf("oracle exercised %d kills, %d with fingerprint ground truth", tested, matched)
			}
			t.Logf("%d kill points, %d fingerprint-verified", tested, matched)
		})
	}
}

// TestTornTailRecovery cuts the log mid-record (a torn write) at
// several byte offsets and expects recovery to fall back to the last
// whole record, reporting the typed cause — never a panic, never a
// silent skip.
func TestTornTailRecovery(t *testing.T) {
	seed := int64(7)
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, "geant", seed, 1, l.Journal())
	cps := driveOps(t, eng, l, "", "geant", 60, seed, 0)
	eng.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	want := map[uint64]string{}
	for _, cp := range cps {
		want[cp.lsn] = cp.fp
	}
	scratch := &Log{dir: dir}
	segs, err := scratch.segments()
	if err != nil {
		t.Fatal(err)
	}
	bs := boundaries(t, scratch.segmentPath(segs[len(segs)-1]))
	if len(bs) < 3 {
		t.Fatalf("workload too small: %d records", len(bs))
	}
	b := bs[len(bs)-2] // the cut lands inside the final record
	for _, cut := range []int{1, frameHeaderSize - 1, frameHeaderSize + 1} {
		killDir := filepath.Join(t.TempDir(), fmt.Sprintf("torn-%d", cut))
		killAt(t, dir, killDir, segs, len(segs)-1, b, cut)
		reng, rl, stats := recoverDir(t, killDir, "geant", seed, 1)
		if stats.LastLSN != b.lsn {
			t.Fatalf("torn cut +%d: recovered to lsn %d, want %d", cut, stats.LastLSN, b.lsn)
		}
		if stats.TailError == nil || !errors.Is(stats.TailError, ErrLogTruncated) {
			t.Fatalf("torn cut +%d: tail error = %v, want ErrLogTruncated", cut, stats.TailError)
		}
		if fp, ok := want[b.lsn]; ok {
			got, ferr := Fingerprint(reng)
			if ferr != nil {
				t.Fatal(ferr)
			}
			if got != fp {
				t.Errorf("torn cut +%d: wrong recovered state", cut)
			}
		}
		reng.Close()
		rl.Close()
	}
}

// TestRecoveryContinuation recovers a log, keeps operating on the
// recovered engine, and verifies a second recovery of the extended log
// lands on the continued state — the restart-and-carry-on path.
func TestRecoveryContinuation(t *testing.T) {
	seed := int64(23)
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := Open(dir, Options{SnapshotEvery: 30, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, "geant", seed, 1, l.Journal())
	driveOps(t, eng, l, "", "geant", 50, seed, 0)
	eng.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reng, rl, _ := recoverDir(t, dir, "geant", seed, 1)
	driveOps(t, reng, rl, "", "geant", 40, seed+100, 10_000)
	contFP, err := Fingerprint(reng)
	if err != nil {
		t.Fatal(err)
	}
	contLSN := rl.LastLSN()
	reng.Close()
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}

	reng2, rl2, stats := recoverDir(t, dir, "geant", seed, 1)
	defer reng2.Close()
	defer rl2.Close()
	if stats.LastLSN != contLSN {
		t.Fatalf("second recovery reached lsn %d, want %d", stats.LastLSN, contLSN)
	}
	got, err := Fingerprint(reng2)
	if err != nil {
		t.Fatal(err)
	}
	if got != contFP {
		t.Fatalf("state diverged across restart: %s.. != %s..", got[:16], contFP[:16])
	}
}

// TestSnapshotEquivalence pins snapshot+suffix ≡ full-log replay: the
// same log recovered via its snapshot and with the snapshots removed
// (forcing replay from LSN 1) must both land on the live state's
// fingerprint.
func TestSnapshotEquivalence(t *testing.T) {
	seed := int64(99)
	dir := filepath.Join(t.TempDir(), "wal")
	// Generous segments so nothing is garbage-collected and the full
	// chain survives for the snapshot-free replay.
	l, err := Open(dir, Options{SegmentBytes: 64 << 20, SnapshotEvery: 25, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, "geant", seed, 1, l.Journal())
	driveOps(t, eng, l, "", "geant", 80, seed, 0)
	fp, err := Fingerprint(eng)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	withSnap, l1, stats1 := recoverDir(t, dir, "geant", seed, 1)
	if stats1.SnapshotLSN == 0 {
		t.Fatal("expected recovery to start from a snapshot")
	}
	got1, err := Fingerprint(withSnap)
	if err != nil {
		t.Fatal(err)
	}
	withSnap.Close()
	l1.Close()

	bare := filepath.Join(t.TempDir(), "bare")
	copyDir(t, dir, bare)
	matches, err := filepath.Glob(filepath.Join(bare, snapPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}
	full, l2, stats2 := recoverDir(t, bare, "geant", seed, 1)
	if stats2.SnapshotLSN != 0 {
		t.Fatal("snapshot-free recovery still found a snapshot")
	}
	got2, err := Fingerprint(full)
	if err != nil {
		t.Fatal(err)
	}
	full.Close()
	l2.Close()

	if got1 != fp || got2 != fp {
		t.Fatalf("replay mismatch: live %s.., with-snapshot %s.., full %s..",
			fp[:16], got1[:16], got2[:16])
	}
}

// TestSegmentRotation forces tiny segments and verifies the chain
// recovers across many files.
func TestSegmentRotation(t *testing.T) {
	seed := int64(3)
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := Open(dir, Options{SegmentBytes: 2 << 10, SnapshotEvery: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, "geant", seed, 1, l.Journal())
	driveOps(t, eng, l, "", "geant", 60, seed, 0)
	fp, err := Fingerprint(eng)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	l.Close()

	segs, err := (&Log{dir: dir}).segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected >= 3 segments at 2 KiB rotation, got %d", len(segs))
	}
	reng, rl, _ := recoverDir(t, dir, "geant", seed, 1)
	defer reng.Close()
	defer rl.Close()
	got, err := Fingerprint(reng)
	if err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Fatal("rotated-chain replay diverged from live state")
	}
}
