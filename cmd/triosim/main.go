// Command triosim runs one simulation from the command line: pick a
// workload (or a trace file), a platform, and a parallelism strategy; get
// the predicted execution time and the communication/computation breakdown.
//
// Examples:
//
//	triosim -model resnet50 -platform P2 -parallelism ddp
//	triosim -model gpt2 -platform P1 -parallelism tp -validate
//	triosim -trace mytrace.json -platform P3 -parallelism pp -chunks 4
//	triosim -model vgg16 -platform P2 -parallelism ddp -trace-out out.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"triosim"
	"triosim/internal/config"
	"triosim/internal/monitor"
	"triosim/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("triosim: ")

	var (
		configPath   = flag.String("config", "", "JSON run spec (see internal/config)")
		model        = flag.String("model", "", "model zoo workload name")
		listModels   = flag.Bool("list-models", false, "print workloads and exit")
		tracePath    = flag.String("trace", "", "single-GPU trace JSON (instead of -model)")
		platform     = flag.String("platform", "P2", "platform: P1, P2, or P3")
		parallelism  = flag.String("parallelism", "ddp", "single, dp, ddp, tp, pp, or dp+tp+pp")
		traceBatch   = flag.Int("trace-batch", 128, "batch size to collect the trace at")
		traceGPU     = flag.String("trace-gpu", "", "GPU to trace on (A40/A100/H100; default platform GPU)")
		globalBatch  = flag.Int("global-batch", 0, "simulated total batch (default: trace batch)")
		numGPUs      = flag.Int("gpus", 0, "GPUs to use (default: platform size)")
		chunks       = flag.Int("chunks", 1, "GPipe micro-batches for pp")
		collectiveAl = flag.String("collective", "", "allreduce algorithm: auto, ring, tree, or hier")
		tpRanks      = flag.Int("tp", 0, "tensor-parallel group size for dp+tp+pp")
		ppStages     = flag.Int("pp", 0, "pipeline stages for dp+tp+pp")
		fuseCompute  = flag.Bool("fuse-compute", false, "collapse per-op chains into fused tasks (large-scale runs)")
		netApproxTol = flag.Float64("net-approx-tol", 0, "flow-solver approximate-equilibrium tolerance (0 = exact)")
		iterations   = flag.Int("iterations", 1, "training iterations to simulate")
		validate     = flag.Bool("validate", false, "also run the hardware emulator and report error")
		memCheck     = flag.Bool("memory", false, "estimate per-GPU peak memory and capacity fit")
		timelineHTML = flag.String("timeline-html", "", "write a self-contained HTML timeline viewer here")
		traceOut     = flag.String("trace-out", "", "write the span-level Chrome trace-event JSON here (open in Perfetto or chrome://tracing)")
		metricsOut   = flag.String("metrics-out", "", "write the telemetry RunReport JSON here")
		determ       = flag.Bool("deterministic", false, "omit wall-clock fields so the RunReport is byte-identical across runs (and to a triosimd-served report)")
		monitorAddr  = flag.String("monitor", "", "serve live /status, /metrics, /healthz on this address (e.g. :8080)")
		faultsPath   = flag.String("faults", "", "inject a fault schedule JSON (triosim.faults/v1; see docs/RESILIENCE.md)")
		faultSeed    = flag.Int64("fault-seed", 0, "generate a seeded fault schedule sized to the fault-free baseline")

		serveSim      = flag.Bool("serve-sim", false, "run a request-level inference-serving simulation instead of training (see docs/SERVING.md)")
		serveSched    = flag.String("serve-sched", "fifo", "serving scheduler: fifo, priority, or sjf")
		serveRequests = flag.Int("serve-requests", 0, "serving workload length (default 64)")
		serveRate     = flag.Float64("serve-rate", 0, "Poisson arrival rate in req/s (default 100)")
		serveSeed     = flag.Int64("serve-seed", 0, "serving workload seed (default 1)")
		serveBatch    = flag.Int("serve-batch", 0, "continuous-batch cap per replica (default 8)")
		serveReplicas = flag.Int("serve-replicas", 0, "model replicas (default: all platform GPUs)")
		serveWorkload = flag.String("serve-workload", "", "request trace JSON instead of the Poisson generator")
	)
	flag.Parse()

	if *serveSim {
		runServing(serveFlags{
			model:    *model,
			platform: *platform,
			sched:    *serveSched,
			requests: *serveRequests,
			rate:     *serveRate,
			seed:     *serveSeed,
			batch:    *serveBatch,
			replicas: *serveReplicas,
			workload: *serveWorkload,
		}, *metricsOut, *traceOut, *faultsPath)
		return
	}

	if *listModels {
		for _, m := range triosim.Models() {
			fmt.Println(m)
		}
		return
	}

	if *configPath != "" {
		spec, err := config.Load(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg, err := spec.ToCore()
		if err != nil {
			log.Fatal(err)
		}
		runAndReport(cfg, *validate, *memCheck, *determ, *timelineHTML,
			*traceOut, *metricsOut, *monitorAddr, *faultsPath, *faultSeed)
		return
	}

	plat, err := triosim.PlatformByName(*platform)
	if err != nil {
		log.Fatal(err)
	}
	cfg := triosim.Config{
		Model:        *model,
		Platform:     plat,
		Parallelism:  triosim.Parallelism(*parallelism),
		TraceBatch:   *traceBatch,
		TraceGPU:     *traceGPU,
		GlobalBatch:  *globalBatch,
		NumGPUs:      *numGPUs,
		MicroBatches: *chunks,
		Iterations:   *iterations,
		Collective:   *collectiveAl,
		TPRanks:      *tpRanks,
		PPStages:     *ppStages,
		FuseCompute:  *fuseCompute,
		NetApproxTol: *netApproxTol,
	}
	if *tracePath != "" {
		tr, err := triosim.ReadTrace(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Trace = tr
		if cfg.Model == "" {
			cfg.Model = tr.Model
		}
	}
	if cfg.Model == "" && cfg.Trace == nil {
		log.Fatal("need -model or -trace (see -list-models)")
	}

	runAndReport(cfg, *validate, *memCheck, *determ, *timelineHTML,
		*traceOut, *metricsOut, *monitorAddr, *faultsPath, *faultSeed)
}

// runAndReport executes one simulation and prints the result block.
func runAndReport(cfg triosim.Config, validate, memCheck, deterministic bool,
	timelineHTML, traceOut, metricsOut, monitorAddr,
	faultsPath string, faultSeed int64) {
	plat := cfg.Platform
	// The sim core never reads the host clock (triosimvet: no-wallclock);
	// the WallClock metric is opt-in from the boundary. -deterministic keeps
	// the clock out so the RunReport carries no wall-clock-derived fields and
	// is byte-identical across runs of the same configuration — the property
	// the triosimd digest gate in scripts/check.sh compares against.
	if !deterministic {
		cfg.Clock = time.Now
	}
	if metricsOut != "" || timelineHTML != "" {
		cfg.Telemetry = true
	}
	if traceOut != "" || timelineHTML != "" {
		// The HTML view draws spans, tabulates the RunReport's per-GPU
		// partition, and highlights the critical path.
		cfg.SpanTrace = true
	}
	// Fault injection runs a fault-free baseline first: it sizes seeded
	// schedules (the generator needs a horizon) and anchors the slowdown
	// comparison printed below.
	var faultBase *triosim.Result
	if faultsPath != "" || faultSeed != 0 {
		bcfg := cfg
		bcfg.Faults = nil
		base, err := triosim.Simulate(bcfg)
		if err != nil {
			log.Fatal(err)
		}
		faultBase = base
		if faultsPath != "" {
			sched, err := triosim.LoadFaultSchedule(faultsPath)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Faults = sched
		} else {
			topo := triosim.BuildTopology(cfg.Platform)
			sched, err := triosim.GenerateFaults(faultSeed,
				triosim.FaultGenConfig{
					NumGPUs:      len(topo.GPUs()),
					NumLinks:     len(topo.Links),
					Horizon:      base.TotalTime,
					LinkDegrades: 1,
					GPUSlowdowns: 1,
				})
			if err != nil {
				log.Fatal(err)
			}
			cfg.Faults = sched
		}
	}
	var mon *monitor.RTM
	if monitorAddr != "" {
		cfg.Metrics = triosim.NewMetricsRegistry()
		mon = monitor.New(cfg.Metrics)
		mon.Clock = time.Now
		cfg.Hooks = append(cfg.Hooks, mon.Hook())
		go func() {
			if err := mon.Serve(monitorAddr); err != nil {
				log.Printf("monitor: %v", err)
			}
		}()
		fmt.Printf("monitor:         http://%s/status (also /metrics, /healthz)\n",
			monitorAddr)
	}
	res, err := triosim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if mon != nil {
		mon.MarkDone()
	}
	fmt.Printf("workload:        %s on %s (%d×%s, %s)\n",
		cfg.Model, plat.Name, orDefault(cfg.NumGPUs, plat.NumGPUs),
		plat.GPU.Name, cfg.Parallelism)
	fmt.Printf("per-iteration:   %v\n", res.PerIteration)
	fmt.Printf("total (%d iter): %v\n", orDefault(cfg.Iterations, 1),
		res.TotalTime)
	fmt.Printf("compute time:    %v\n", res.ComputeTime)
	fmt.Printf("comm time:       %v (%.1f%% of total)\n", res.CommTime,
		100*float64(res.CommTime)/float64(res.TotalTime))
	fmt.Printf("host staging:    %v\n", res.HostLoadTime)
	fmt.Printf("simulator:       %d tasks, %d events, %v wall clock\n",
		res.Tasks, res.Events, res.WallClock)
	fmt.Printf("event digest:    %#x\n", res.EventDigest)
	if cp := res.CriticalPath; cp != nil && cp.LengthSec > 0 {
		pct := func(v float64) float64 { return 100 * v / cp.LengthSec }
		fmt.Printf("critical path:   %d steps over %.6gs — compute %.1f%%, comm %.1f%%, idle %.1f%%, fault-stretch %.1f%%\n",
			len(cp.Steps), cp.LengthSec,
			pct(cp.Attribution.ComputeSec), pct(cp.Attribution.CommSec),
			pct(cp.Attribution.IdleSec), pct(cp.Attribution.FaultStretchSec))
		if len(cp.Slack) > 0 {
			s := cp.Slack[0]
			fmt.Printf("nearest slack:   %s on %s (%.6gs of slack)\n",
				s.Name, s.Track, s.SlackSec)
		}
	}

	if cfg.Faults != nil {
		fmt.Printf("faults:          %d windows, %d failures\n",
			len(cfg.Faults.Windows()), len(cfg.Faults.Failures()))
		if faultBase != nil {
			fmt.Printf("fault-free:      %v (slowdown ×%.3f)\n",
				faultBase.TotalTime,
				float64(res.TotalTime)/float64(faultBase.TotalTime))
		}
		if rr := res.Resilience; rr != nil {
			fmt.Printf("goodput:         %.3f (extended %v: useful %v, ckpt %v, replay %v, restart %v)\n",
				res.Goodput, rr.TotalTime, rr.UsefulTime,
				rr.CheckpointTime, rr.ReplayTime, rr.RestartTime)
		}
	}

	if metricsOut != "" && res.Report != nil {
		f, err := os.Create(metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Report.WriteJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics:         %s (%s)\n", metricsOut,
			res.Report.Schema)
	}

	if validate {
		if cfg.Trace != nil {
			log.Fatal("-validate needs a zoo model (the emulator re-runs it natively)")
		}
		cmp, err := triosim.Validate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("hardware (emulated): %v\n", cmp.Actual)
		fmt.Printf("prediction error:    %.2f%%\n", cmp.Error*100)
	}

	if memCheck {
		rep, err := triosim.MemoryFootprint(cfg)
		if err != nil {
			log.Fatal(err)
		}
		for i, f := range rep.PerGPU {
			fmt.Printf("gpu%d memory:     %.1f GB (w %.1f + g %.1f + opt %.1f + act %.1f + in %.1f)\n",
				i, gb(f.Total()), gb(f.Weights), gb(f.Gradients),
				gb(f.OptimizerState), gb(f.Activations), gb(f.Input))
		}
		verdict := "fits"
		if !rep.Fits {
			verdict = "OUT OF MEMORY"
		}
		fmt.Printf("capacity check:  %s (worst GPU at %.0f%% of %.0f GB)\n",
			verdict, rep.WorstUtilization*100, gb(plat.GPU.MemCapacity))
	}

	if traceOut != "" {
		if res.Spans == nil {
			log.Fatal("-trace-out: run recorded no spans")
		}
		if err := res.Spans.WriteChromeTraceFile(traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("span trace:      %s (open in Perfetto / chrome://tracing)\n",
			traceOut)
	}

	if timelineHTML != "" {
		f, err := os.Create(timelineHTML)
		if err != nil {
			log.Fatal(err)
		}
		title := fmt.Sprintf("%s · %s · %s", cfg.Model, plat.Name,
			cfg.Parallelism)
		if err := telemetry.WriteTimelineHTML(f, title, res.Spans,
			res.Report); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline html:   %s\n", timelineHTML)
	}
}

func gb(b int64) float64 { return float64(b) / (1 << 30) }

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}
