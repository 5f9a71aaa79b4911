// Command bench is TrioSim's end-to-end benchmark. It runs four workloads —
// the paper's validation sweep, a 2,048-GPU exact and a 10,000-GPU
// approximate training step, and an in-process triosimd under a request mix
// — prints every end-to-end metric with its unit, and checks every output.
// A traced run times each layer from outside the simulator instead. See
// README.md for the metrics, the workloads and how to compare two commits.
//
//	bash bench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --out run.json
//	bash bench/run.sh compare -old 'a/*.json' -new 'b/*.json'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stderr receives diagnostics; tests silence it.
var stderr io.Writer = os.Stderr

// workloads in the order a full run executes them.
var workloads = []string{"paper-sweep", "cluster-2k-exact",
	"cluster-10k-approx", "daemon-mix"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// runFlags are the command line of a run.
type runFlags struct {
	workload, scale, out, spans string
	seed                        int64
	seconds                     float64
	trace                       int
}

func parseRunFlags(args []string) (runFlags, error) {
	var f runFlags
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.workload, "workload", "", "workload to run: "+
		strings.Join(workloads, ", ")+" (default: all, each in its own process)")
	fs.Int64Var(&f.seed, "seed", 1, "seed the workload inputs are drawn from")
	fs.Float64Var(&f.seconds, "seconds", 20, "how long each workload measures")
	fs.IntVar(&f.trace, "trace", 0, "1 makes the traced run, which reports the per-layer metrics")
	fs.StringVar(&f.scale, "scale", "full", "full, or smoke: the same code paths at tiny sizes")
	fs.StringVar(&f.out, "out", "", "write the results, with machine information, as JSON to this file")
	fs.StringVar(&f.spans, "spans", "", "traced runs: write the spans as JSON to this file and as Chrome trace-event JSON beside it")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	switch {
	case fs.NArg() > 0:
		return f, fmt.Errorf("unexpected arguments %q", fs.Args())
	case f.trace != 0 && f.trace != 1:
		return f, fmt.Errorf("-trace is 0 or 1, not %d", f.trace)
	case f.scale != "full" && f.scale != "smoke":
		return f, fmt.Errorf("-scale is full or smoke, not %q", f.scale)
	case f.seconds <= 0:
		return f, fmt.Errorf("-seconds must be positive")
	case f.workload != "" && !known(f.workload):
		return f, fmt.Errorf("unknown workload %q", f.workload)
	}
	return f, nil
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

func (f runFlags) options() options {
	return options{seed: f.seed, trace: f.trace == 1, smoke: f.scale == "smoke",
		seconds: time.Duration(f.seconds * float64(time.Second))}
}

func runMain(args []string, stdout io.Writer) int {
	f, err := parseRunFlags(args)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if f.workload == "" {
		return runAll(f, stdout)
	}
	started := time.Now()
	out, err := runWorkload(f.workload, f.options())
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", f.workload, err)
		return 1
	}
	res := newRunResult(f, started, out)
	printResult(stdout, res)
	if f.out != "" {
		res.Machine = machine()
		if err := writeJSONFile(f.out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if f.spans != "" && out.spans != nil {
		if err := out.spans.write(f.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The last line of standard output is the machine-read result.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func runWorkload(name string, o options) (*outcome, error) {
	switch name {
	case "paper-sweep":
		return runSweep(o)
	case "cluster-2k-exact", "cluster-10k-approx":
		return runCluster(name, o)
	case "daemon-mix":
		return runDaemon(o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricValue is one metric of the machine-read result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run as written to -out files and read by
// compare.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Scale     string                 `json:"scale"`
	Started   time.Time              `json:"started"`
	Machine   *machineInfo           `json:"machine,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]any         `json:"info"`
}

// runSet is a full run of every workload (one -out file).
type runSet struct {
	Seed      int64        `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Trace     bool         `json:"trace"`
	Scale     string       `json:"scale"`
	Started   time.Time    `json:"started"`
	Machine   *machineInfo `json:"machine,omitempty"`
	Workloads []runResult  `json:"workloads"`
}

func newRunResult(f runFlags, started time.Time, out *outcome) runResult {
	defs := endToEnd
	if f.trace == 1 {
		defs = perLayer
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	return runResult{Workload: f.workload, Seed: f.seed, Seconds: f.seconds,
		Trace: f.trace == 1, Scale: f.scale, Started: started,
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted, Failed: out.failed, Metrics: metrics,
		Info: out.info}
}

func printResult(w io.Writer, r runResult) {
	kind := "untraced"
	defs := endToEnd
	if r.Trace {
		kind, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "%s: seed %d, %g s, %s, %s scale\n", r.Workload, r.Seed,
		r.Seconds, kind, r.Scale)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, r.Metrics[d.name].Value,
			d.unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %v\n", k, r.Info[k])
	}
	fmt.Fprintf(w, "  %-34s %v (%d attempted, %d failed)\n", "correct",
		r.Correct, r.Attempted, r.Failed)
}

// runAll runs each workload in its own child process, one after another, so
// each gets a fresh heap and its own peak RSS.
func runAll(f runFlags, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	set := runSet{Seed: f.seed, Seconds: f.seconds, Trace: f.trace == 1,
		Scale: f.scale, Started: time.Now()}
	status := 0
	for _, w := range workloads {
		args := []string{"--workload", w, "--seed", strconv.FormatInt(f.seed, 10),
			"--seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(f.trace), "--scale", f.scale}
		part := ""
		if f.out != "" {
			part = f.out + "." + w + ".part"
			args = append(args, "--out", part)
		}
		if f.spans != "" {
			args = append(args, "--spans",
				strings.TrimSuffix(f.spans, ".json")+"."+w+".json")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			status = 1
			continue
		}
		if part == "" {
			continue
		}
		var r runResult
		data, err := os.ReadFile(part)
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		os.Remove(part)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: read results: %v\n", w, err)
			status = 1
			continue
		}
		if !r.Correct {
			status = 1
		}
		set.Machine = r.Machine
		set.Workloads = append(set.Workloads, r)
	}
	if f.out != "" {
		if err := writeJSONFile(f.out, set); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// machineInfo describes where a result was measured.
type machineInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func machine() *machineInfo {
	m := &machineInfo{NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok &&
				strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// loadRuns reads every result file matching pattern, full runs and single
// workload runs alike, in file-name order.
func loadRuns(pattern string) ([]runResult, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	var out []runResult
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var set runSet
		var one runResult
		if err := json.Unmarshal(data, &set); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		if len(set.Workloads) > 0 {
			out = append(out, set.Workloads...)
			continue
		}
		if err := json.Unmarshal(data, &one); err != nil || one.Workload == "" {
			return nil, fmt.Errorf("%s: not a benchmark result", file)
		}
		out = append(out, one)
	}
	return out, nil
}
