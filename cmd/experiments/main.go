// Command experiments regenerates the paper's tables and figures. Each
// figure prints the rows the paper reports (predicted vs hardware times and
// errors, ratios, speedups), produced entirely inside the simulator stack.
//
// Figures fan their scenario grids across a worker pool (internal/sweep);
// the output is byte-identical at any worker count, so -workers only
// changes wall-clock time.
//
// Usage:
//
//	experiments [-quick] [-only fig8,fig10] [-markdown] [-workers N]
//	            [-scenario-timeout 2m]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"triosim/internal/experiments"
	"triosim/internal/faults"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run executes one command line, printing each selected figure to w. A
// figure that fails does not stop the others; run returns every failure.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "trim workload lists for a fast run")
	only := fs.String("only", "", "comma-separated figure ids (e.g. fig8)")
	markdown := fs.Bool("markdown", false, "emit Markdown tables")
	workers := fs.Int("workers", 0,
		"scenario sweep workers (0 = all cores, 1 = serial)")
	timeout := fs.Duration("scenario-timeout", 0,
		"per-scenario simulation timeout (0 = unbounded)")
	faultsPath := fs.String("faults", "",
		"fault schedule JSON added to the resilience figure as a custom scenario")
	noTraceCache := fs.Bool("no-trace-cache", false,
		"disable the per-figure shared trace cache (A/B measurement; output is identical either way)")
	faultSeed := fs.Int64("fault-seed", 0,
		"add a seeded generated fault scenario to the resilience figure")
	traceOut := fs.String("trace-out", "",
		"directory for per-cell span-level Chrome trace-event JSON files (created if missing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	var custom *faults.Schedule
	if *faultsPath != "" {
		s, err := faults.Load(*faultsPath)
		if err != nil {
			return err
		}
		custom = s
	}
	opts := experiments.Options{Workers: *workers, Timeout: *timeout,
		NoTraceCache: *noTraceCache, TraceDir: *traceOut}
	runners := experiments.AllFaults(*quick, opts, custom, *faultSeed)
	var ids []string
	for _, r := range runners {
		ids = append(ids, r.ID)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(ids, id) {
				return fmt.Errorf("-only: unknown figure %q (valid: %s)", id,
					strings.Join(ids, ", "))
			}
			want[id] = true
		}
	}

	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			return err
		}
	}
	var errs []error
	for _, r := range runners {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		fig, err := r.Run()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s failed: %w", r.ID, err))
			continue
		}
		if *markdown {
			fig.Markdown(w)
		} else {
			fig.Print(w)
		}
	}
	return errors.Join(errs...)
}
