// Command bench is the repository's benchmark: six workloads, end-to-end
// and per-layer metrics, and a traced run that prices each layer of the
// stack from outside. See README.md in this directory.
//
//	bash bench/run.sh                                  every workload, timed and traced
//	bash bench/run.sh -workload engine-loaded          one workload, timed and traced
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                   one run; the last line is its result as JSON
//	bash bench/run.sh -compare a.json b.json           two result files against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this workload only (default: all six)")
		seed    = fs.Int64("seed", 7, "workload seed: the same seed generates the same requests")
		seconds = fs.Float64("seconds", 15, "seconds the timed windows of one run measure")
		trace   = fs.Int("trace", -1, "with -workload: 0 runs the timed run and reports the end-to-end metrics, 1 the traced run and the per-layer metrics (default: both, each in its own process)")
		scale   = fs.Float64("scale", 1, "multiplies -seconds and the warm-up (the smoke test runs at 0.01)")
		scratch = fs.String("scratch", ".scratch", "directory for WAL directories, crash images and span dumps; never tmpfs")
		out     = fs.String("out", "", "write the results of a full run here (default <scratch>/results.json)")
		compare = fs.Bool("compare", false, "compare two result files given as arguments; exits 1 when an end-to-end metric of the second is worse than the first by more than its bound")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -scale must be positive")
		return 2
	}
	abs, err := filepath.Abs(*scratch)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	o := runOptions{seed: *seed, seconds: *seconds, scale: *scale, scratch: abs}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		if *trace >= 0 {
			o.traced = *trace == 1
			return single(w, o, stdout, stderr)
		}
		selected = []workload{*w}
	}
	if *out == "" {
		*out = filepath.Join(abs, "results.json")
	}
	return all(selected, o, *out, stdout, stderr)
}

// report is the last line of a single run: the driver's contract.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single runs one workload once in this process, prints every metric it
// measured by name with its unit, then the result line: the end-to-end
// metrics of a timed run, the per-layer metrics of a traced one.
func single(w *workload, o runOptions, stdout, stderr io.Writer) int {
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	mode, defs := "timed", endToEnd
	if o.traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(stdout, "# %s seed=%d %s run, %d clients, closed loop", w.Name, o.seed, mode, w.Clients)
	if w.isDaemon() {
		fmt.Fprint(stdout, ", loopback TCP")
	}
	fmt.Fprintf(stdout, "; warm-up %+v\n", res.Prefix)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(stdout, "%-22s %-26s %14.4f %s\n", w.Name, d.Name, v, d.Unit)
			}
		}
	}
	for _, c := range res.Checks {
		fmt.Fprintf(stdout, "CHECK FAILED %s: %s\n", w.Name, c)
	}

	rep := report{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !o.traced {
			fmt.Fprintf(stderr, "bench: %s: end-to-end metric %s was not measured\n", w.Name, d.Name)
			return 1
		}
		// A per-layer metric the workload does not have reads 0.
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// envelope says where and on what a result file was measured.
type envelope struct {
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	WALFS      string  `json:"wal_dir_filesystem"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Network    string  `json:"network"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Environment envelope          `json:"environment"`
	Workloads   []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Name      string             `json:"name"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// all runs the timed and the traced run of every selected workload, each
// in a fresh child process, and writes the result file.
func all(selected []workload, o runOptions, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	walFS, _ := fsType(o.scratch)
	host, _ := os.Hostname()
	file := resultFile{Environment: envelope{
		Commit: commit(), Date: time.Now().UTC().Format(time.RFC3339), Host: host,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		WALFS: walFS, Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Network: "loopback TCP, generator and daemon in one process",
	}}
	code := 0
	for i := range selected {
		w := &selected[i]
		wr := workloadResults{Name: w.Name, Correct: true}
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-scale", fmt.Sprint(o.scale), "-scratch", o.scratch, "-trace", fmt.Sprint(trace))
			var buf bytes.Buffer
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			rep, perr := lastLine(buf.Bytes())
			if perr != nil {
				fmt.Fprintf(stderr, "bench: %s (trace %d): %v (%v)\n", w.Name, trace, perr, runErr)
				wr.Correct = false
				code = 1
				continue
			}
			if runErr != nil || !rep.Correct {
				wr.Correct = false
				code = 1
			}
			values := make(map[string]float64, len(rep.Metrics))
			for k, v := range rep.Metrics {
				values[k] = v.Value
			}
			if trace == 0 {
				wr.EndToEnd, wr.Attempted, wr.Failed = values, rep.Attempted, rep.Failed
			} else {
				wr.PerLayer = values
			}
		}
		file.Workloads = append(file.Workloads, wr)
	}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# results written to %s\n", out)
	return code
}

// lastLine parses the result line a single run ends with.
func lastLine(stdout []byte) (*report, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &rep, nil
}

// commit names the checked-out commit, where there is a git checkout, and
// says when tracked files differ from it.
func commit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(head))
	if diff, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(diff) > 0 {
		id += "-dirty"
	}
	return id
}
