package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"nfvmcast/internal/core"
	"nfvmcast/internal/multicast"
)

// benchmarkJSON mirrors BENCHMARK.json at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkJSON pins the program's metric and workload
// tables to BENCHMARK.json: the driver reads the file, the program prints
// from the tables.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n%+v\n%+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q/%q in BENCHMARK.json, %q/%q in spec.go", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

// runOnce runs the program in process and returns its output and result line.
func runOnce(t *testing.T, args ...string) (int, string, *report) {
	t.Helper()
	var stdout bytes.Buffer
	code := run(args, &stdout, io.Discard)
	if stdout.Len() == 0 {
		return code, "", nil
	}
	rep, err := lastLine(stdout.Bytes())
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stdout.String())
	}
	return code, stdout.String(), rep
}

// TestSmoke runs every workload's timed and traced run at 1% scale and
// checks that each reports exactly the metrics BENCHMARK.json names for
// it, each once, with its unit and a finite value.
func TestSmoke(t *testing.T) {
	scratch := t.TempDir()
	if fs, _ := fsType(scratch); fs == "tmpfs" {
		t.Skip("temporary directory is on tmpfs: daemon-durable refuses to run there")
	}
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			code, out, rep := runOnce(t, "-workload", w.Name, "-scale", "0.01", "-scratch", scratch,
				"-trace", map[int]string{0: "0", 1: "1"}[trace])
			if code != 0 || rep == nil || !rep.Correct {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.Name, trace, code, out)
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%d: attempted %d, failed %d", w.Name, trace, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics in the result line, want %d", w.Name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rep.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %s and a finite value", w.Name, trace, d.Name, v, ok, d.Unit)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, v.Value)
				}
			}
			// Every printed metric line names a metric of the spec, once.
			printed := map[string]int{}
			for _, line := range strings.Split(out, "\n") {
				if f := strings.Fields(line); len(f) == 4 && f[0] == w.Name {
					printed[f[1]]++
					if f[3] != unitOf(f[1]) {
						t.Errorf("%s: line %q carries the wrong unit", w.Name, line)
					}
				}
			}
			for name, n := range printed {
				if n != 1 {
					t.Errorf("%s trace=%d: metric %s printed %d times", w.Name, trace, name, n)
				}
			}
			for _, d := range applicable(&w, trace == 1) {
				if printed[d] != 1 {
					t.Errorf("%s trace=%d: metric %s was not printed", w.Name, trace, d)
				}
			}
		}
	}
	if left, _ := os.ReadDir(scratch); len(left) != len(workloads) {
		t.Errorf("scratch directory holds %d entries after the runs, want the %d span dumps only", len(left), len(workloads))
	}
}

// applicable lists the metrics a workload must print: every end-to-end
// metric, and in a traced run the per-layer metrics of the layers on its
// path.
func applicable(w *workload, traced bool) []string {
	names := []string{"failed_share", "proc.allocs_per_req", "proc.alloc_kb_per_req", "loadgen.window_spread", "loadgen.admit_p999_us"}
	for _, d := range endToEnd {
		names = append(names, d.Name)
	}
	names = append(names, "admit_p99_us")
	if !w.Offline && w.Hold == 0 { // at 1% scale a held session is never released inside a window
		names = append(names, "release_p50_us")
	}
	if w.isDaemon() {
		names = append(names, "daemon.http_429_share", "shard.max_share")
	}
	if w.Durable {
		names = append(names, "restart_s", "wal.bytes_per_req", "wal.fsyncs_per_req", "wal.snapshots_per_kreq")
	}
	if !traced {
		return names
	}
	names = append(names, "graph.dijkstra_us", "graph.kmb_us", "sdn.clone_into_us", "sdn.allocate_release_us",
		"trace.top_admit_us", "trace.c1_requests_per_s", "trace.overhead_share")
	if w.Offline {
		return append(names, "core.solve_us")
	}
	names = append(names, "core.admit_us", "core.plan_us", "core.plan_p99_us", "core.commit_us", "core.depart_us", "core.allocs_per_plan",
		"engine.admit_us", "engine.depart_us", "engine.self_us", "engine.allocs_per_req", "engine.plans_per_admit",
		"engine.replans_per_kreq", "engine.conflicts_per_kreq", "engine.clones_per_req")
	if w.isDaemon() {
		names = append(names, "shard.self_us", "daemon.decode_us", "daemon.encode_us", "daemon.handler_self_us", "daemon.loopback_self_us")
	}
	if w.Durable {
		names = append(names, "wal.append_self_us", "wal.fsync_self_us", "wal.append_us", "wal.barrier_us", "wal.snapshot_ms", "wal.recover_us_per_record")
	}
	return names
}

// TestTamperedTreeFailsDelivery is the negative control of the delivery
// check: a solved tree passes, the same tree with one hop removed does not.
func TestTamperedTreeFailsDelivery(t *testing.T) {
	w := findWorkload("offline-appromulti")
	nw, err := buildNetwork(w)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStream(w, nw.NumNodes(), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.ApproMulti(nw, st.request(0), core.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTrees([]*multicast.PseudoTree{sol.Tree}, nw.Graph()); err != nil {
		t.Fatalf("intact tree: %v", err)
	}
	hops := sol.Tree.Hops()
	cut := multicast.NewPseudoTree(sol.Tree.Source, sol.Tree.Destinations, sol.Tree.Servers)
	for _, h := range hops[:len(hops)-1] {
		cut.AddHop(h)
	}
	if err := checkTrees([]*multicast.PseudoTree{cut}, nw.Graph()); err == nil {
		t.Fatal("a tree with its last hop removed passed the delivery check")
	}
	if err := checkTrees([]*multicast.PseudoTree{nil}, nw.Graph()); err == nil {
		t.Fatal("a missing tree passed the delivery check")
	}
}

// TestCompare checks the direction of "worse" and the breach rule.
func TestCompare(t *testing.T) {
	file := func(rps, p50, setup float64) *resultFile {
		return &resultFile{Workloads: []workloadResults{{
			Name: "engine-loaded", Correct: true,
			EndToEnd: map[string]float64{"setup_s": setup, "requests_per_s": rps, "admit_p50_us": p50, "admitted_share": 1, "mean_cost": 1},
		}}}
	}
	base := file(1000, 100, 0.01)
	for _, tc := range []struct {
		name string
		b    *resultFile
		want int
	}{
		{"identical", file(1000, 100, 0.01), 0},
		{"faster and within", file(1200, 124, 0.01), 0},
		{"throughput fell 26%", file(740, 100, 0.01), 1},
		{"latency rose 26%", file(1000, 126, 0.01), 1},
		{"setup tripled but by under 50 ms", file(1000, 100, 0.03), 0},
		{"setup rose by 100 ms", file(1000, 100, 0.11), 1},
	} {
		if got := compareResults(base, tc.b, io.Discard); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
