package sim

// The figure golden pins every experiment's output: each one runs at
// a mixed scale (network sizes {50, 100, 150}, 20 offline requests per
// point, 300 online arrivals) and its figures are compared with
// testdata/figures.golden.json. IDs, titles, axes, labels and series
// lengths are compared for every series; values are compared exactly
// for every series except the wall-clock ones in timingSeries. The
// online scale matters: at 20 arrivals every online figure admits
// everything, so a change to an admission policy moves nothing.
//
// A change that is meant to move a figure regenerates the golden (the
// failing test writes the fresh one and names its path), results/*.json
// and EXPERIMENTS.md's tables together, and lists every series that
// moved.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var figuresDir = flag.String("figures-dir", "",
	"compare the figure files nfvsim -json wrote into this directory with results/*.json (skipped when empty)")

const goldenPath = "testdata/figures.golden.json"

// goldenConfig is the configuration the golden pins an experiment at;
// online experiments run 300 arrivals, as in nfvsim's full runs.
func goldenConfig(online bool) Config {
	cfg := DefaultConfig()
	cfg.Requests = 20
	cfg.NetworkSizes = []int{50, 100, 150}
	if online {
		cfg.Requests = 300
	}
	return cfg
}

// seriesKey names one series of one figure.
type seriesKey struct{ figure, label string }

// timingSeries are the series that record wall-clock time. Their
// values vary per run and per machine, so they are compared by shape
// only.
func timingSeries() map[seriesKey]bool {
	keys := map[seriesKey]bool{
		{"Fig7(b)", "Appro_Multi_Cap"}:             true,
		{"AblationK", "running time (ms)"}:         true,
		{"AblationEvaluator", "running time (ms)"}: true,
		{"ExtRecoverLatency", "repair γ=1.5"}:      true,
		{"ExtRecoverLatency", "replan only (γ=0)"}: true,
	}
	for _, fig := range []string{"Fig5(d)", "Fig5(e)", "Fig5(f)", "Fig6(d)", "Fig6(e)", "Fig6(f)"} {
		for _, alg := range []string{"Appro_Multi", "Alg_One_Server", "One_Server_Nearest"} {
			keys[seriesKey{fig, alg}] = true
		}
	}
	return keys
}

// experimentFigures is one experiment's output as the golden and
// nfvsim's JSON files hold it.
type experimentFigures struct {
	Experiment string   `json:"experiment"`
	Figures    []Figure `json:"figures"`
}

// compareFigures reports every difference between want and got: shape
// always, values exactly except for timing series. It also reports a
// timing entry that names no series of want, so the exclusion list
// cannot silently outlive a renamed series.
func compareFigures(want, got []experimentFigures, timing map[seriesKey]bool) []string {
	var diffs []string
	seen := map[seriesKey]bool{}
	if len(want) != len(got) {
		return []string{fmt.Sprintf("%d experiments, want %d", len(got), len(want))}
	}
	for ei := range want {
		w, g := want[ei], got[ei]
		if w.Experiment != g.Experiment {
			diffs = append(diffs, fmt.Sprintf("experiment %d is %q, want %q", ei, g.Experiment, w.Experiment))
			continue
		}
		if len(w.Figures) != len(g.Figures) {
			diffs = append(diffs, fmt.Sprintf("%s: %d figures, want %d", w.Experiment, len(g.Figures), len(w.Figures)))
			continue
		}
		for fi := range w.Figures {
			wf, gf := w.Figures[fi], g.Figures[fi]
			at := fmt.Sprintf("%s/%s", w.Experiment, wf.ID)
			if wf.ID != gf.ID || wf.Title != gf.Title || wf.XLabel != gf.XLabel || wf.YLabel != gf.YLabel {
				diffs = append(diffs, fmt.Sprintf("%s: header %q %q %q %q, want %q %q %q %q", at,
					gf.ID, gf.Title, gf.XLabel, gf.YLabel, wf.ID, wf.Title, wf.XLabel, wf.YLabel))
				continue
			}
			if !equalFloats(wf.X, gf.X) {
				diffs = append(diffs, fmt.Sprintf("%s: x %v, want %v", at, gf.X, wf.X))
			}
			if len(wf.Series) != len(gf.Series) {
				diffs = append(diffs, fmt.Sprintf("%s: %d series, want %d", at, len(gf.Series), len(wf.Series)))
				continue
			}
			for si := range wf.Series {
				ws, gs := wf.Series[si], gf.Series[si]
				key := seriesKey{wf.ID, ws.Label}
				seen[key] = true
				switch {
				case ws.Label != gs.Label:
					diffs = append(diffs, fmt.Sprintf("%s: series %d is %q, want %q", at, si, gs.Label, ws.Label))
				case len(ws.Y) != len(gs.Y):
					diffs = append(diffs, fmt.Sprintf("%s/%s: %d points, want %d", at, ws.Label, len(gs.Y), len(ws.Y)))
				case !timing[key] && !equalFloats(ws.Y, gs.Y):
					diffs = append(diffs, fmt.Sprintf("%s/%s: %v, want %v", at, ws.Label, gs.Y, ws.Y))
				}
			}
		}
	}
	var stale []string
	for key := range timing {
		if !seen[key] {
			stale = append(stale, fmt.Sprintf("timing series %s/%q names no series", key.figure, key.label))
		}
	}
	sort.Strings(stale)
	return append(diffs, stale...)
}

// equalFloats reports whether a and b hold the same values bit for bit
// (encoding/json round-trips float64 exactly).
func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// withoutTiming returns figs with every timing series' values zeroed,
// so the golden file is the same bytes on every machine.
func withoutTiming(figs []Figure, timing map[seriesKey]bool) []Figure {
	out := make([]Figure, len(figs))
	for fi, f := range figs {
		f.Series = append([]Series(nil), f.Series...)
		for si, s := range f.Series {
			if timing[seriesKey{f.ID, s.Label}] {
				f.Series[si].Y = make([]float64, len(s.Y))
			}
		}
		out[fi] = f
	}
	return out
}

func TestFigureGolden(t *testing.T) {
	timing := timingSeries()
	got := make([]experimentFigures, len(Experiments))
	err := forEachIndex(len(Experiments), func(i int) error {
		e := Experiments[i]
		figs, err := e.Run(goldenConfig(e.Online))
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		got[i] = experimentFigures{Experiment: e.Name, Figures: withoutTiming(figs, timing)}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	fresh = append(fresh, '\n')
	raw, err := os.ReadFile(goldenPath)
	if err == nil && bytes.Equal(raw, fresh) {
		return
	}
	var want []experimentFigures
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err == nil {
		diffs := compareFigures(want, got, timing)
		for _, d := range diffs {
			t.Error(d)
		}
		if len(diffs) == 0 {
			t.Error("figures match but the golden's bytes differ; regenerate it")
		}
	} else {
		t.Error(err)
	}
	if f, ferr := os.CreateTemp("", "figures.golden.*.json"); ferr == nil {
		_, werr := f.Write(fresh)
		if cerr := f.Close(); werr == nil && cerr == nil {
			t.Logf("fresh golden written to %s; copy it over %s only if every moved series is intended",
				f.Name(), goldenPath)
		}
	}
}

// readResultsDir reads one <experiment>.json per experiment from dir,
// in Experiments order.
func readResultsDir(t *testing.T, dir string) []experimentFigures {
	t.Helper()
	out := make([]experimentFigures, len(Experiments))
	for i, e := range Experiments {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	return out
}

// TestFiguresMatchResults compares a full-scale reproduction — the
// files of `nfvsim -experiment all -json DIR`, passed as
// -figures-dir DIR — with the checked-in results/*.json, using the
// golden's comparator and timing list.
func TestFiguresMatchResults(t *testing.T) {
	if *figuresDir == "" {
		t.Skip("no -figures-dir given")
	}
	want := readResultsDir(t, filepath.Join("..", "..", "results"))
	got := readResultsDir(t, *figuresDir)
	for _, d := range compareFigures(want, got, timingSeries()) {
		t.Error(d)
	}
}

// TestResultsQualitative checks the paper's qualitative claims, as
// EXPERIMENTS.md states them, on the checked-in full-scale results.
func TestResultsQualitative(t *testing.T) {
	results := map[string][]Figure{}
	for _, e := range readResultsDir(t, filepath.Join("..", "..", "results")) {
		results[e.Experiment] = e.Figures
	}
	series := func(f Figure, label string) []float64 {
		for _, s := range f.Series {
			if s.Label == label {
				return s.Y
			}
		}
		t.Fatalf("%s: no series %q", f.ID, label)
		return nil
	}
	// Appro_Multi <= Alg_One_Server <= One_Server_Nearest at every
	// offline cost point.
	costPanels := 0
	for _, f := range append(results["fig5"], results["fig6"]...) {
		if f.YLabel != "avg operational cost" {
			continue
		}
		costPanels++
		am, one, near := series(f, "Appro_Multi"), series(f, "Alg_One_Server"), series(f, "One_Server_Nearest")
		for i, x := range f.X {
			if am[i] > one[i] || one[i] > near[i] {
				t.Errorf("%s x=%v: Appro_Multi %v, Alg_One_Server %v, One_Server_Nearest %v out of order",
					f.ID, x, am[i], one[i], near[i])
			}
		}
	}
	if costPanels != 6 {
		t.Errorf("found %d Fig5/Fig6 cost panels, want 6", costPanels)
	}
	// Online_CP admits at least as many as SP_Static at every Fig8/Fig9
	// point. Adaptive SP is not bounded this way: it leads at Fig8
	// n = 50 and 100 and on GÉANT.
	for _, f := range append(results["fig8"], results["fig9"]...) {
		cp, static := series(f, "Online_CP"), series(f, "SP_Static")
		for i, x := range f.X {
			if cp[i] < static[i] {
				t.Errorf("%s x=%v: Online_CP admitted %v < SP_Static %v", f.ID, x, cp[i], static[i])
			}
		}
	}
	// Every worst measured gap is within Theorem 1's 2K (ExtOptGap
	// solves with K = 2).
	const twoK = 2 * 2
	for _, f := range results["ext-optgap"] {
		for _, label := range []string{"KMB worst", "Appro_Multi worst"} {
			for i, y := range series(f, label) {
				if y > twoK {
					t.Errorf("%s/%s x=%v: ratio %v > 2K = %d", f.ID, label, f.X[i], y, twoK)
				}
			}
		}
	}
}
