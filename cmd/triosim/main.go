// Command triosim runs one simulation from the command line: pick a
// workload (or a trace file), a platform, and a parallelism strategy; get
// the predicted execution time and the communication/computation breakdown.
//
// The run flags (or a -config JSON file) fill one config.RunSpec and the
// -serve-* flags one config.ServeSpec; every path then calls the spec's
// ToCore, the mapping triosimd uses too.
//
// Examples:
//
//	triosim -model resnet50 -platform P2 -parallelism ddp
//	triosim -model gpt2 -platform P1 -parallelism tp -validate
//	triosim -trace mytrace.json -platform P3 -parallelism pp -chunks 4
//	triosim -model vgg16 -platform P2 -parallelism ddp -trace-out out.json
//	triosim -config run.json -deterministic -metrics-out report.json
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
	"time"

	"triosim"
	"triosim/internal/config"
	"triosim/internal/monitor"
	"triosim/internal/spantrace"
	"triosim/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("triosim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// options is one parsed command line: the spec the flags fill, and the
// flags that choose the path and the outputs rather than the simulation.
type options struct {
	run   config.RunSpec
	serve config.ServeSpec
	// workload is the -serve-workload request trace JSON.
	configPath, workload, faultsPath                      string
	metricsOut, traceOut, timelineHTML, monitorAddr       string
	listModels, serveSim, deterministic, validate, memory bool
	faultSeed                                             int64
}

// Flags a path would drop. Setting one explicitly is an error, never a
// silent no-op: -config replaces specFlags, -serve-sim ignores
// trainingFlags, and only -serve-sim reads servingFlags.
const (
	strategyFlags = "trace parallelism trace-batch trace-gpu global-batch gpus chunks collective tp pp fuse-compute net-approx-tol iterations"
	specFlags     = "model platform " + strategyFlags
	trainingFlags = "config fault-seed validate memory timeline-html monitor " + strategyFlags
	servingFlags  = "serve-sched serve-requests serve-rate serve-seed serve-batch serve-replicas serve-workload"
)

// parseArgs binds every flag to its spec field or option and rejects
// combinations whose flags the chosen path would ignore.
func parseArgs(args []string) (*options, error) {
	o := &options{}
	r, s := &o.run, &o.serve.Serving
	fs := flag.NewFlagSet("triosim", flag.ContinueOnError)
	fs.StringVar(&o.configPath, "config", "", "JSON run spec (see internal/config); replaces the run flags")
	fs.BoolVar(&o.listModels, "list-models", false, "print workloads and exit")
	fs.StringVar(&r.Model, "model", "", "model zoo workload name")
	fs.StringVar(&r.TraceFile, "trace", "", "single-GPU trace JSON (instead of -model)")
	fs.StringVar(&r.Platform, "platform", "P2", "platform: P1, P2, or P3")
	fs.StringVar(&r.Parallelism, "parallelism", "ddp", "single, dp, ddp, tp, pp, or dp+tp+pp")
	fs.IntVar(&r.TraceBatch, "trace-batch", 128, "batch size to collect the trace at")
	fs.StringVar(&r.TraceGPU, "trace-gpu", "", "GPU to trace on (A40/A100/H100; default platform GPU)")
	fs.IntVar(&r.GlobalBatch, "global-batch", 0, "simulated total batch (default: trace batch)")
	fs.IntVar(&r.NumGPUs, "gpus", 0, "GPUs to use (default: platform size)")
	fs.IntVar(&r.Chunks, "chunks", 1, "GPipe micro-batches for pp")
	fs.StringVar(&r.Collective, "collective", "", "allreduce algorithm: auto, ring, tree, or hier")
	fs.IntVar(&r.TPRanks, "tp", 0, "tensor-parallel group size for dp+tp+pp")
	fs.IntVar(&r.PPStages, "pp", 0, "pipeline stages for dp+tp+pp")
	fs.BoolVar(&r.FuseCompute, "fuse-compute", false, "collapse per-op chains into fused tasks (large-scale runs)")
	fs.Float64Var(&r.NetApproxTol, "net-approx-tol", 0, "flow-solver approximate-equilibrium tolerance (0 = exact)")
	fs.IntVar(&r.Iterations, "iterations", 1, "training iterations to simulate")
	fs.BoolVar(&o.validate, "validate", false, "also run the hardware emulator and report error")
	fs.BoolVar(&o.memory, "memory", false, "estimate per-GPU peak memory and capacity fit")
	fs.StringVar(&o.timelineHTML, "timeline-html", "", "write a self-contained HTML timeline viewer here")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the span-level Chrome trace-event JSON here (open in Perfetto or chrome://tracing)")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the telemetry RunReport JSON here")
	fs.BoolVar(&o.deterministic, "deterministic", false, "omit wall-clock fields so the RunReport is byte-identical across runs (and to a triosimd-served report)")
	fs.StringVar(&o.monitorAddr, "monitor", "", "serve live /status, /metrics, /healthz on this address (e.g. :8080)")
	fs.StringVar(&o.faultsPath, "faults", "", "inject a fault schedule JSON (triosim.faults/v1; see docs/RESILIENCE.md)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 0, "generate a seeded fault schedule sized to the fault-free baseline")

	fs.BoolVar(&o.serveSim, "serve-sim", false, "run a request-level inference-serving simulation instead of training (see docs/SERVING.md)")
	fs.StringVar(&s.Scheduler, "serve-sched", "fifo", "serving scheduler: fifo, priority, or sjf")
	fs.IntVar(&s.Arrivals.Requests, "serve-requests", 0, "serving workload length (default 64)")
	fs.Float64Var(&s.Arrivals.Rate, "serve-rate", 0, "Poisson arrival rate in req/s (default 100)")
	fs.Int64Var(&s.Arrivals.Seed, "serve-seed", 0, "serving workload seed (default 1)")
	fs.IntVar(&s.MaxBatch, "serve-batch", 0, "continuous-batch cap per replica (default 8)")
	fs.IntVar(&s.Replicas, "serve-replicas", 0, "model replicas (default: all platform GPUs)")
	fs.StringVar(&o.workload, "serve-workload", "", "request trace JSON instead of the Poisson generator")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.serve.Platform, s.Model = r.Platform, r.Model

	dropped, why := servingFlags, "needs -serve-sim"
	switch {
	case o.serveSim:
		dropped, why = trainingFlags, "does not apply to -serve-sim"
	case o.configPath != "":
		dropped = specFlags + " " + servingFlags
		why = "cannot be combined with -config (set it in the JSON spec)"
	}
	var err error
	fs.Visit(func(f *flag.Flag) { // in name order
		if err == nil && slices.Contains(strings.Fields(dropped), f.Name) {
			err = fmt.Errorf("-%s %s", f.Name, why)
		}
	})
	return o, err
}

// run executes one command line, printing the result block to w.
func run(args []string, w io.Writer) error {
	o, err := parseArgs(args)
	switch {
	case err != nil:
		return err
	case o.listModels:
		for _, m := range triosim.Models() {
			fmt.Fprintln(w, m)
		}
		return nil
	case o.serveSim:
		return runServing(o, w)
	}
	spec := &o.run
	if o.configPath != "" {
		if spec, err = config.Load(o.configPath); err != nil {
			return err
		}
	}
	cfg, err := spec.ToCore()
	if err != nil {
		return err
	}
	if spec.TraceFile != "" {
		tr, err := triosim.ReadTrace(spec.TraceFile)
		if err != nil {
			return err
		}
		cfg.Trace = tr
		if cfg.Model == "" {
			cfg.Model = tr.Model
		}
	}
	if cfg.Model == "" && cfg.Trace == nil {
		return errors.New("need -model or -trace (see -list-models)")
	}
	return runTraining(o, cfg, w)
}

// observe returns the clock and recorders the chosen outputs need. The sim
// core never reads the host clock (triosimvet: no-wallclock); the WallClock
// metric is opt-in from the boundary. -deterministic keeps the clock out so
// the RunReport carries no wall-clock-derived fields and is byte-identical
// across runs of the same spec — the property the triosimd gates in
// scripts/check.sh compare against. The HTML timeline draws spans and
// tabulates the RunReport's per-GPU partition, so it needs both recorders.
func (o *options) observe() (clock func() time.Time, report, spans bool) {
	if !o.deterministic {
		clock = time.Now
	}
	return clock, o.metricsOut != "" || o.timelineHTML != "",
		o.traceOut != "" || o.timelineHTML != ""
}

// runTraining executes one training simulation and prints the result block.
func runTraining(o *options, cfg triosim.Config, w io.Writer) error {
	plat := cfg.Platform
	cfg.Clock, cfg.Telemetry, cfg.SpanTrace = o.observe()
	// Fault injection runs a fault-free baseline first: it sizes seeded
	// schedules (the generator needs a horizon) and anchors the slowdown
	// comparison printed below.
	var faultBase *triosim.Result
	if o.faultsPath != "" || o.faultSeed != 0 {
		base, err := triosim.Simulate(cfg)
		if err != nil {
			return err
		}
		faultBase = base
		if o.faultsPath != "" {
			cfg.Faults, err = triosim.LoadFaultSchedule(o.faultsPath)
		} else {
			// Draw from the topology the run simulates: a -config spec's
			// own, else the platform's default.
			topo := cfg.Topology
			if topo == nil {
				topo = triosim.BuildTopology(cfg.Platform)
			}
			cfg.Faults, err = triosim.GenerateFaults(o.faultSeed,
				triosim.FaultGenConfig{
					NumGPUs:      len(topo.GPUs()),
					NumLinks:     len(topo.Links),
					Horizon:      base.TotalTime,
					LinkDegrades: 1,
					GPUSlowdowns: 1,
				})
		}
		if err != nil {
			return err
		}
	}
	var mon *monitor.RTM
	if o.monitorAddr != "" {
		cfg.Metrics = triosim.NewMetricsRegistry()
		mon = monitor.New(cfg.Metrics)
		mon.Clock = time.Now
		cfg.Hooks = append(cfg.Hooks, mon.Hook())
		go func() {
			if err := mon.Serve(o.monitorAddr); err != nil {
				log.Printf("monitor: %v", err)
			}
		}()
		fmt.Fprintf(w, "monitor:         http://%s/status (also /metrics, /healthz)\n",
			o.monitorAddr)
	}
	res, err := triosim.Simulate(cfg)
	if err != nil {
		return err
	}
	if mon != nil {
		mon.MarkDone()
	}
	fmt.Fprintf(w, "workload:        %s on %s (%d×%s, %s)\n",
		cfg.Model, plat.Name, orDefault(cfg.NumGPUs, plat.NumGPUs),
		plat.GPU.Name, cfg.Parallelism)
	fmt.Fprintf(w, "per-iteration:   %v\n", res.PerIteration)
	fmt.Fprintf(w, "total (%d iter): %v\n", orDefault(cfg.Iterations, 1),
		res.TotalTime)
	fmt.Fprintf(w, "compute time:    %v\n", res.ComputeTime)
	fmt.Fprintf(w, "comm time:       %v (%.1f%% of total)\n", res.CommTime,
		100*float64(res.CommTime)/float64(res.TotalTime))
	fmt.Fprintf(w, "host staging:    %v\n", res.HostLoadTime)
	fmt.Fprintf(w, "simulator:       %d tasks, %d events, %v wall clock\n",
		res.Tasks, res.Events, res.WallClock)
	fmt.Fprintf(w, "event digest:    %#x\n", res.EventDigest)
	fmt.Fprintf(w, "outcome digest:  %#x\n", res.OutcomeDigest)
	if cp := res.CriticalPath; cp != nil && cp.LengthSec > 0 {
		pct := func(v float64) float64 { return 100 * v / cp.LengthSec }
		fmt.Fprintf(w, "critical path:   %d steps over %.6gs — compute %.1f%%, comm %.1f%%, idle %.1f%%, fault-stretch %.1f%%\n",
			len(cp.Steps), cp.LengthSec,
			pct(cp.Attribution.ComputeSec), pct(cp.Attribution.CommSec),
			pct(cp.Attribution.IdleSec), pct(cp.Attribution.FaultStretchSec))
		if len(cp.Slack) > 0 {
			s := cp.Slack[0]
			fmt.Fprintf(w, "nearest slack:   %s on %s (%.6gs of slack)\n",
				s.Name, s.Track, s.SlackSec)
		}
	}

	if cfg.Faults != nil {
		fmt.Fprintf(w, "faults:          %d windows, %d failures\n",
			len(cfg.Faults.Windows()), len(cfg.Faults.Failures()))
		fmt.Fprintf(w, "fault-free:      %v (slowdown ×%.3f)\n",
			faultBase.TotalTime,
			float64(res.TotalTime)/float64(faultBase.TotalTime))
		if rr := res.Resilience; rr != nil {
			fmt.Fprintf(w, "goodput:         %.3f (extended %v: useful %v, ckpt %v, replay %v, restart %v)\n",
				res.Goodput, rr.TotalTime, rr.UsefulTime,
				rr.CheckpointTime, rr.ReplayTime, rr.RestartTime)
		}
	}

	if err := o.writeOutputs(w, res.Report, res.Spans); err != nil {
		return err
	}

	if o.validate {
		if cfg.Trace != nil {
			return errors.New("-validate needs a zoo model (the emulator re-runs it natively)")
		}
		cmp, err := triosim.Validate(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "hardware (emulated): %v\n", cmp.Actual)
		fmt.Fprintf(w, "prediction error:    %.2f%%\n", cmp.Error*100)
	}

	if o.memory {
		rep, err := triosim.MemoryFootprint(cfg)
		if err != nil {
			return err
		}
		for i, f := range rep.PerGPU {
			fmt.Fprintf(w, "gpu%d memory:     %.1f GB (w %.1f + g %.1f + opt %.1f + act %.1f + in %.1f)\n",
				i, gb(f.Total()), gb(f.Weights), gb(f.Gradients),
				gb(f.OptimizerState), gb(f.Activations), gb(f.Input))
		}
		verdict := "fits"
		if !rep.Fits {
			verdict = "OUT OF MEMORY"
		}
		fmt.Fprintf(w, "capacity check:  %s (worst GPU at %.0f%% of %.0f GB)\n",
			verdict, rep.WorstUtilization*100, gb(plat.GPU.MemCapacity))
	}

	if o.timelineHTML != "" {
		title := fmt.Sprintf("%s · %s · %s", cfg.Model, plat.Name,
			cfg.Parallelism)
		if err := writeFile(o.timelineHTML, func(f io.Writer) error {
			return telemetry.WriteTimelineHTML(f, title, res.Spans, res.Report)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline html:   %s\n", o.timelineHTML)
	}
	return nil
}

// writeOutputs writes the -metrics-out RunReport and the -trace-out span
// trace of a training or a serving run.
func (o *options) writeOutputs(w io.Writer, rep *telemetry.RunReport,
	spans *spantrace.Log) error {
	if o.metricsOut != "" && rep != nil {
		if err := writeFile(o.metricsOut, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics:         %s (%s)\n", o.metricsOut, rep.Schema)
	}
	if o.traceOut != "" {
		if spans == nil {
			return errors.New("-trace-out: run recorded no spans")
		}
		if err := spans.WriteChromeTraceFile(o.traceOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "span trace:      %s (open in Perfetto / chrome://tracing)\n",
			o.traceOut)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func gb(b int64) float64 { return float64(b) / (1 << 30) }

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}
