// Command traceinfo profiles a trace: per-operator-type time/FLOPs/bytes
// breakdown, phase split, operator-category summary, and parameter volumes —
// what to look at before (or instead of) simulating.
//
// Usage:
//
//	traceinfo trace.json
//	traceinfo -model resnet50 -batch 128 -gpu A100   # profile a zoo trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"triosim"
	"triosim/internal/telemetry"
	"triosim/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceinfo: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run executes one command line: it profiles the trace file argument, or
// the -model zoo trace, onto w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	model := fs.String("model", "", "profile a model-zoo trace instead of a file")
	batch := fs.Int("batch", 128, "batch size for -model")
	gpu := fs.String("gpu", "A100", "GPU for -model")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *triosim.Trace
	var err error
	switch {
	case *model != "" && fs.NArg() == 0:
		tr, err = triosim.CollectTrace(*model, *batch, *gpu)
	case *model == "" && fs.NArg() == 1:
		tr, err = triosim.ReadTrace(fs.Arg(0))
	default:
		return errors.New("need one trace file argument or -model")
	}
	if err != nil {
		return err
	}
	stats := tr.ComputeStats()
	stats.Print(w)
	printCategories(w, tr)
	return nil
}

// catAgg accumulates one operator category's per-phase time.
type catAgg struct {
	count int
	total triosim.VTime
	phase map[trace.Phase]triosim.VTime
}

// printCategories renders the per-category breakdown (conv, gemm, norm, …)
// with the forward/backward/optimizer split, using the same categorization
// the telemetry RunReport histograms use.
func printCategories(w io.Writer, tr *triosim.Trace) {
	cats := map[string]*catAgg{}
	var total triosim.VTime
	for i := range tr.Ops {
		op := &tr.Ops[i]
		c := telemetry.OpCategory(op.Name)
		agg := cats[c]
		if agg == nil {
			agg = &catAgg{phase: map[trace.Phase]triosim.VTime{}}
			cats[c] = agg
		}
		agg.count++
		agg.total += op.Time
		agg.phase[op.Phase] += op.Time
		total += op.Time
	}
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Slice(names, func(i, j int) bool {
		if cats[names[i]].total != cats[names[j]].total {
			return cats[names[i]].total.After(cats[names[j]].total)
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "  %-16s %6s %14s %8s %14s %14s %14s\n",
		"category", "count", "time", "share", "forward", "backward",
		"optimizer")
	for _, c := range names {
		agg := cats[c]
		fmt.Fprintf(w, "  %-16s %6d %14v %7.1f%% %14v %14v %14v\n",
			c, agg.count, agg.total,
			100*float64(agg.total)/float64(total),
			agg.phase[trace.Forward], agg.phase[trace.Backward],
			agg.phase[trace.Optimizer])
	}
}
