package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/engine"
	"nfvmcast/internal/multicast"
	"nfvmcast/internal/obs"
	recov "nfvmcast/internal/recover"
	"nfvmcast/internal/sdn"
)

// segmentDigests are the sha256 digests of the segment files the fixed
// history of TestSegmentBytesPinned writes, keyed by file name. They pin
// the record encoding byte for byte: the engine's journal vocabulary and
// the WAL's translation of it may be reshaped, but the bytes on disk may
// not move, or logs written by an older build stop replaying.
var segmentDigests = map[string]string{
	"wal-0000000000000001.seg": "7388dd0059c3ba6db4aa379395541340a56bd58f78238fad7e3e61fe963a1951",
	"wal-0000000000000022.seg": "fe58abfe9bf8319f792ee9934d6b15cfb4e64320eba9973a20e07c634a6a9902",
	"wal-000000000000003e.seg": "881c769be4599da3576a2f18265e81492c8f7af47e2b78d82a85a5817a7e38c4",
}

// TestSegmentBytesPinned drives a fixed GÉANT history through a journaled
// engine — admissions, a re-optimisation recorded with Replace,
// departures, and an Apply whose recovery pass repairs some sessions and
// sheds one — and compares every segment file with its pinned digest.
func TestSegmentBytesPinned(t *testing.T) {
	const seed = 7
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := Open(dir, Options{SegmentBytes: 16 << 10, SnapshotEvery: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, "geant", seed, 1, l.Journal())
	gen, err := multicast.NewGenerator(testNetwork(t, "geant", seed).NumNodes(), multicast.OnlineGeneratorConfig(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	admit := func(n int) {
		for i := 0; i < n; i++ {
			req, gerr := gen.Next()
			if gerr != nil {
				t.Fatal(gerr)
			}
			if _, aerr := eng.Admit(req); aerr != nil && !core.IsRejection(aerr) {
				t.Fatal(aerr)
			}
		}
	}

	admit(40)
	// Re-place the live sessions with Appro_Multi on the writer and
	// record every moved session with Replace.
	lives := eng.Lives()
	var moved []*core.Solution
	if err := eng.Update(func(nw *sdn.Network) error {
		out, _, _, rerr := core.Reoptimize(nw, lives, core.Options{K: 1})
		for i := range out {
			if out[i] != lives[i] {
				moved = append(moved, out[i])
			}
		}
		return rerr
	}); err != nil {
		t.Fatal(err)
	}
	if len(moved) == 0 {
		t.Fatal("re-optimisation moved no session")
	}
	for _, sol := range moved {
		if err := eng.Replace(sol.Request.ID, sol); err != nil {
			t.Fatal(err)
		}
	}
	lives = eng.Lives()
	for i := 0; i < len(lives); i += 8 {
		if _, err := eng.Depart(lives[i].Request.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Apply(engine.Mutation{Kind: engine.LinkState, ID: pinnedFailLink, Up: false}); err != nil {
		t.Fatal(err)
	}
	repaired, shed := 0, 0
	if rep := eng.LastRecovery(); rep != nil {
		for _, o := range rep.Outcomes {
			if o.Mode == recov.ModeShed {
				shed++
			} else {
				repaired++
			}
		}
	}
	if repaired == 0 || shed == 0 {
		t.Fatalf("recovery pass repaired %d and shed %d sessions; the history needs both", repaired, shed)
	}
	admit(10)
	if err := eng.Apply(engine.Mutation{Kind: engine.LinkState, ID: pinnedFailLink, Up: true}); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Every record type is on disk.
	scratch := &Log{dir: dir}
	segs, err := scratch.segments()
	if err != nil {
		t.Fatal(err)
	}
	types := map[obs.EventType]int{}
	got := map[string]string{}
	for _, first := range segs {
		path := scratch.segmentPath(first)
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		for off := 0; off < len(data); {
			rec, next, ferr := readFrame(data, off)
			if ferr != nil {
				t.Fatal(ferr)
			}
			types[rec.Type]++
			off = next
		}
		sum := sha256.Sum256(data)
		got[filepath.Base(path)] = hex.EncodeToString(sum[:])
	}
	for _, typ := range []obs.EventType{obs.Admitted, obs.Departed, obs.Repaired, obs.Shed, obs.MutationApplied} {
		if types[typ] == 0 {
			t.Errorf("history wrote no %s record (%v)", typ, types)
		}
	}
	if len(segs) < 2 {
		t.Errorf("history fits in %d segment; it should rotate", len(segs))
	}
	for name, sum := range got {
		if want := segmentDigests[name]; sum != want {
			t.Errorf("segment %s: sha256 %s, pinned %q", name, sum, want)
		}
	}
	if len(got) != len(segmentDigests) {
		t.Errorf("history wrote %d segments, %d are pinned", len(got), len(segmentDigests))
	}
}

// pinnedFailLink is the GÉANT link whose failure, at that point of the
// history, makes the recovery pass both repair and shed.
const pinnedFailLink = 59
