package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
)

func appendDeparted(l *Log, reqID int) (uint64, error) {
	return l.Append(&Record{Type: obs.Departed, Request: reqID})
}

// chainLSNs reads every record of every segment in dir, in chain order.
func chainLSNs(t *testing.T, dir string) []uint64 {
	t.Helper()
	scratch := &Log{dir: dir}
	segs, err := scratch.segments()
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for _, first := range segs {
		for _, b := range boundaries(t, scratch.segmentPath(first)) {
			lsns = append(lsns, b.lsn)
		}
	}
	return lsns
}

// TestBarrierConcurrentWithAppendAndRotation runs the two goroutines a
// journaled engine runs — one appending, one barriering — against a log
// whose segments rotate every few records, so barriers keep capturing a
// segment that a rotation then seals under them. Every barrier must
// succeed, and after a reopen every LSN up to the last one a barrier
// covered must be on disk, gap-free.
func TestBarrierConcurrentWithAppendAndRotation(t *testing.T) {
	const records = 600
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := Open(dir, Options{SegmentBytes: 256, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	appended := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(appended)
		for i := 0; i < records; i++ {
			if _, aerr := appendDeparted(l, i); aerr != nil {
				t.Errorf("append %d: %v", i, aerr)
				return
			}
		}
	}()
	var covered uint64
	barriers := 0
	for done := false; !done; {
		select {
		case <-appended:
			done = true // one last barrier covers the tail
		default:
		}
		lsn := l.LastLSN()
		if berr := l.Barrier(); berr != nil {
			t.Fatalf("barrier %d: %v", barriers, berr)
		}
		covered = lsn
		barriers++
	}
	wg.Wait()
	if err := l.Err(); err != nil {
		t.Fatalf("sticky error after the run: %v", err)
	}
	if covered != records {
		t.Fatalf("the last barrier covered lsn %d, want %d", covered, records)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := (&Log{dir: dir}).segments(); len(segs) < records/8 {
		t.Fatalf("%d segments: rotation was not exercised", len(segs))
	}

	rl, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if rl.TailError() != nil || rl.LastLSN() != records {
		t.Fatalf("reopened at lsn %d (tail %v), want %d and a clean tail", rl.LastLSN(), rl.TailError(), records)
	}
	lsns := chainLSNs(t, dir)
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("record %d of the chain has lsn %d", i, lsn)
		}
	}
	if uint64(len(lsns)) < covered {
		t.Fatalf("chain holds %d records, barriers covered %d", len(lsns), covered)
	}
}

// parkSync replaces l's fsync with one that reports on parked and then
// waits for a verdict. The buffers exceed any test's sync count, so
// verdicts can be handed out ahead and unwatched syncs do not block.
func parkSync(l *Log) (parked chan struct{}, verdicts chan error) {
	parked, verdicts = make(chan struct{}, 8), make(chan error, 8)
	l.syncFile = func(*os.File) error {
		parked <- struct{}{}
		return <-verdicts
	}
	return parked, verdicts
}

// within fails the test unless f returns promptly.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s is waiting on the fsync of a barrier in flight", what)
	}
}

// TestAppendDoesNotWaitForFsync: the fsync sits outside the log mutex —
// while a barrier is parked in a slow sync, Append, ShouldSnapshot and
// LastLSN return, and what was appended meanwhile is left to the next
// barrier.
func TestAppendDoesNotWaitForFsync(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	parked, verdicts := parkSync(l)
	defer close(verdicts) // a failing run must not leave Close behind a parked sync
	if _, err := appendDeparted(l, 1); err != nil {
		t.Fatal(err)
	}
	barrier := make(chan error, 1)
	go func() { barrier <- l.Barrier() }()
	<-parked

	within(t, "Append", func() {
		if lsn, aerr := appendDeparted(l, 2); aerr != nil || lsn != 2 {
			t.Errorf("append during a barrier = lsn %d, %v", lsn, aerr)
		}
	})
	within(t, "ShouldSnapshot", func() {
		if !l.ShouldSnapshot() {
			t.Error("ShouldSnapshot = false with SnapshotEvery records appended")
		}
	})
	within(t, "LastLSN", func() {
		if got := l.LastLSN(); got != 2 {
			t.Errorf("LastLSN = %d, want 2", got)
		}
	})

	verdicts <- nil
	if err := <-barrier; err != nil {
		t.Fatal(err)
	}
	// The first barrier captured lsn 1 only: lsn 2 still owes a sync.
	go func() { barrier <- l.Barrier() }()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the record appended during the first barrier was taken as covered by it")
	}
	verdicts <- nil
	if err := <-barrier; err != nil {
		t.Fatal(err)
	}
	// Nothing new: no sync at all.
	if err := l.Barrier(); err != nil || len(parked) != 0 {
		t.Fatalf("idle barrier = %v with %d syncs, want nil and none", err, len(parked))
	}
}

// TestBarrierFailureIsSticky: a failed sync fails its barrier, every
// later barrier and every later append — also the ones that slipped in
// while the failing sync was in flight stay uncovered.
func TestBarrierFailureIsSticky(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	parked, verdicts := parkSync(l)
	defer close(verdicts)
	if _, err := appendDeparted(l, 1); err != nil {
		t.Fatal(err)
	}
	barrier := make(chan error, 1)
	go func() { barrier <- l.Barrier() }()
	<-parked
	if _, err := appendDeparted(l, 2); err != nil {
		t.Fatalf("append while the doomed sync is in flight: %v", err)
	}
	boom := errors.New("disk on fire")
	verdicts <- boom
	if err := <-barrier; !errors.Is(err, boom) {
		t.Fatalf("barrier = %v, want the sync failure", err)
	}
	if err := l.Barrier(); !errors.Is(err, boom) {
		t.Fatalf("next barrier = %v, want the sticky failure", err)
	}
	if _, err := appendDeparted(l, 3); !errors.Is(err, boom) {
		t.Fatalf("append on a failed log = %v, want the sticky failure", err)
	}
	if !errors.Is(l.Err(), boom) || len(parked) != 0 {
		t.Fatalf("Err = %v, %d syncs after the failure", l.Err(), len(parked))
	}
}

// TestBarrierOnSegmentSealedMeanwhile pins the one interleaving the
// concurrent test only meets by luck: a barrier captures the active
// segment, a rotation seals (syncs and closes) it before the barrier's
// own sync runs, and that sync finds the descriptor closed. The
// rotation's sync covered every captured record, so the barrier
// succeeds and the log stays healthy.
func TestBarrierOnSegmentSealedMeanwhile(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{SegmentBytes: 128, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	entered, gate := make(chan struct{}), make(chan struct{})
	var syncErrs []error
	parkNext := true
	l.syncFile = func(f *os.File) error {
		if parkNext {
			parkNext = false
			entered <- struct{}{}
			<-gate
		}
		serr := f.Sync()
		syncErrs = append(syncErrs, serr)
		return serr
	}
	if _, err := appendDeparted(l, 0); err != nil {
		t.Fatal(err)
	}
	barrier := make(chan error, 1)
	go func() { barrier <- l.Barrier() }()
	<-entered
	captured := l.f
	for i := 1; l.f == captured; i++ { // append until a rotation seals the captured segment
		if _, err := appendDeparted(l, i); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if err := <-barrier; err != nil {
		t.Fatalf("barrier on a segment sealed meanwhile = %v", err)
	}
	if last := syncErrs[len(syncErrs)-1]; !errors.Is(last, os.ErrClosed) {
		t.Fatalf("the barrier's sync returned %v: the interleaving under test did not happen", last)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("log failed: %v", err)
	}
	if l.durableLSN < 1 {
		t.Fatalf("durable lsn %d after the barrier", l.durableLSN)
	}
	if err := l.Barrier(); err != nil || l.durableLSN != l.LastLSN() {
		t.Fatalf("next barrier = %v, durable %d of %d", err, l.durableLSN, l.LastLSN())
	}
}

// TestSnapshotWaitsForItsRecords: the engine's state runs ahead of the
// disk by the operations whose barrier is in flight, and a snapshot
// captures that state — so it must not be published before the records
// it claims to cover are durable, or a crash would leave a snapshot
// ahead of the segment chain.
func TestSnapshotWaitsForItsRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eng := testEngine(t, "geant", 5, 1, l.Journal())
	defer eng.Close()
	parked, verdicts := parkSync(l)
	defer close(verdicts)
	gen, err := multicast.NewGenerator(testNetwork(t, "geant", 5).NumNodes(), multicast.OnlineGeneratorConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	req, err := gen.Next()
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { _, aerr := eng.Admit(req); admitted <- aerr }()
	<-parked // the admission is applied and appended; its barrier is in flight

	type snapResult struct {
		lsn uint64
		err error
	}
	snapped := make(chan snapResult, 1)
	go func() { lsn, serr := l.Snapshot(eng); snapped <- snapResult{lsn, serr} }()
	time.Sleep(20 * time.Millisecond)
	if snaps, _ := l.snapshots(); len(snaps) != 0 {
		t.Fatalf("snapshot %v published while the records it covers are not durable", snaps)
	}
	verdicts <- nil
	if err := <-admitted; err != nil {
		t.Fatal(err)
	}
	res := <-snapped
	if res.err != nil || res.lsn != 1 {
		t.Fatalf("snapshot = lsn %d, %v; want lsn 1", res.lsn, res.err)
	}
}
