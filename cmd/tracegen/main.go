// Command tracegen is the tracer-substitute CLI: it builds the operator and
// tensor tables for a model-zoo workload, stamps measured times with the
// reference hardware emulator for the chosen GPU, and writes the single-GPU
// trace TrioSim consumes.
//
// Example:
//
//	tracegen -model resnet50 -batch 128 -gpu A100 -o resnet50_a100_b128.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"triosim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run executes one command line: it writes the trace and prints its summary
// to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	model := fs.String("model", "resnet50", "model zoo workload name")
	batch := fs.Int("batch", 128, "mini-batch size")
	gpu := fs.String("gpu", "A100", "GPU to trace on: A40, A100, H100")
	out := fs.String("o", "trace.json", "output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	tr, err := triosim.CollectTrace(*model, *batch, *gpu)
	if err != nil {
		return err
	}
	if err := tr.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d ops, %d tensors, iteration time %v\n",
		*out, len(tr.Ops), tr.Tensors.Len(), tr.TotalTime())
	fmt.Fprintf(w, "weights %.1f MB, gradients %.1f MB, input %.1f MB/iter\n",
		float64(tr.WeightBytes())/1e6, float64(tr.GradientBytes())/1e6,
		float64(tr.InputBytes())/1e6)
	return nil
}
