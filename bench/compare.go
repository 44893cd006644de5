package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// setupSlackS is the absolute worsening setup_s may always show: set-up
// takes tenths of a second, where a relative bound alone is all noise.
const setupSlackS = 0.05

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is how much worse b is than a, as a share of a; negative when
// b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = 1e-12
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and metric, how the second result file
// differs from the first, and fails on any end-to-end metric that is worse
// by more than its bound. Per-layer metrics are shown and never gate.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResults(pathB); err == nil {
			return compareResults(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareResults(a, b *resultFile, stdout io.Writer) int {
	byName := make(map[string]*workloadResults)
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	breaches := 0
	fmt.Fprintf(stdout, "%-22s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-22s missing from the second file\n", wa.Name)
			breaches++
			continue
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(stdout, "%-22s failed its correctness checks (first %v, second %v)\n", wa.Name, wa.Correct, wb.Correct)
			breaches++
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			worse := worsening(d, va, vb)
			verdict := ""
			if worse > d.Bound && !(d.Name == "setup_s" && vb-va <= setupSlackS) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-22s %-26s %14.4f %14.4f %+8.1f%% %6.1f%%%s\n", wa.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(stdout, "%-22s failed requests rose from %d to %d  BREACH\n", wa.Name, wa.Failed, wb.Failed)
			breaches++
		}
		for _, d := range perLayer {
			va, vb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
			if va == 0 && vb == 0 {
				continue
			}
			fmt.Fprintf(stdout, "%-22s %-26s %14.4f %14.4f %+8.1f%%\n", wa.Name, d.Name, va, vb, 100*worsening(d, va, vb))
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "# %d end-to-end breaches\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "# every end-to-end metric within its bound")
	return 0
}
