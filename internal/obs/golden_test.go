package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenRegistry builds a registry with fixed values covering every
// instrument kind, so the exposition formats are pinned byte-for-byte.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("nfv_admitted_total", "Requests admitted (allocated and live).",
		L("policy", "Online_CP")).Add(42)
	reg.Counter("nfv_rejected_total", "Requests rejected, by canonical reason.",
		L("policy", "Online_CP"), L("reason", ReasonBandwidth)).Add(3)
	reg.Counter("nfv_rejected_total", "Requests rejected, by canonical reason.",
		L("policy", "Online_CP"), L("reason", ReasonThreshold)).Add(1)
	reg.Gauge("nfv_live_sessions", "Admitted sessions currently holding resources.",
		L("policy", "Online_CP")).Set(39)
	reg.Gauge("nfv_link_utilization_max", "Highest link utilisation across the network.").Set(0.875)
	h := reg.Histogram("nfv_plan_seconds", "Planner latency (sampled; empty unless SampleLatency).",
		[]float64{0.001, 0.01, 0.1}, L("policy", "Online_CP"))
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 0.5} {
		h.Observe(v)
	}
	// One shard's log mid-flight: lsn 8 appended, a barrier covered 7.
	w := NewWALObs(reg, "s0")
	w.Appended(7, 412)
	w.Fsynced(7, 400*time.Microsecond)
	w.Appended(8, 96)
	return reg
}

// goldenEvents is a fixed admission-event sequence covering the full
// vocabulary, in the order a concurrent engine could emit it.
func goldenEvents() []Event {
	return []Event{
		{Type: AdmitPlanned, Request: 1, Servers: []int{4}, Cost: 12.5},
		{Type: Admitted, Request: 1, Servers: []int{4}, Cost: 12.5},
		{Type: AdmitPlanned, Request: 2, Servers: []int{4, 9}, Cost: 30},
		{Type: CommitConflict, Request: 2, Reason: ReasonBandwidth},
		{Type: Replanned, Request: 2},
		{Type: AdmitPlanned, Request: 2, Servers: []int{9}, Cost: 31.25},
		{Type: Admitted, Request: 2, Servers: []int{9}, Cost: 31.25},
		{Type: Rejected, Request: 3, Reason: ReasonThreshold},
		{Type: FailureInjected, Reason: "structure version 1 -> 2"},
		{Type: Departed, Request: 1},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(run with -update if the change is intended)",
			name, got, want)
	}
}

func TestPrometheusExpositionGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.golden", b.Bytes())
}

func TestJSONExportGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.json.golden", b.Bytes())
}

func TestEventsJSONLGolden(t *testing.T) {
	var b bytes.Buffer
	sink := NewJSONLinesSink(&b)
	// Route through an AdmissionObs so sequence numbers and the policy
	// label are assigned exactly as in production.
	o := NewAdmissionObs(NewRegistry(), "Online_CP", AdmissionObsOptions{Events: sink})
	for _, ev := range goldenEvents() {
		o.emit(ev)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "events.jsonl.golden", b.Bytes())
}
