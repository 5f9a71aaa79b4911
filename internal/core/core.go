// Package core is TrioSim proper: it wires the tracer substitute, the
// multi-GPU trace extrapolator, the linear-regression operator performance
// model, and the lightweight network model into a single simulator with the
// paper's inputs (a single-GPU trace, a network topology, GPU parameters,
// and a parallelism scheme) and outputs (predicted execution time, per-phase
// communication/computation breakdown, and a virtual-time span log).
package core

import (
	"context"
	"fmt"
	"time"

	"triosim/internal/extrapolator"
	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/hwsim"
	"triosim/internal/memory"
	"triosim/internal/network"
	"triosim/internal/perfmodel"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/task"
	"triosim/internal/telemetry"
	"triosim/internal/trace"
	"triosim/internal/tracecache"
)

// Parallelism selects the training strategy to simulate.
type Parallelism string

// Supported parallelism strategies.
const (
	Single Parallelism = "single"
	DP     Parallelism = "dp"  // standard DataParallel
	DDP    Parallelism = "ddp" // DistributedDataParallel (overlapped)
	TP     Parallelism = "tp"  // tensor parallelism
	PP     Parallelism = "pp"  // pipeline parallelism (GPipe)
	// Hybrid strategies: DPGroups data-parallel replicas of pipeline or
	// tensor parallel groups (an extension beyond the paper's DP/TP/PP).
	DPPP Parallelism = "dp+pp"
	DPTP Parallelism = "dp+tp"
	// DPTPPP is full 3D parallelism (Megatron-style DP×TP×PP) for
	// cluster-scale runs: TPRanks×PPStages GPUs per replica, the rest of
	// NumGPUs split into data-parallel replicas.
	DPTPPP Parallelism = "dp+tp+pp"
	// ZeRO1 is ZeRO stage-1 data parallelism: gradients reduce-scattered,
	// optimizer state sharded, parameters all-gathered.
	ZeRO1 Parallelism = "zero1"
)

// Config describes one simulation.
type Config struct {
	// Model is the workload name from the model zoo (used when Trace is
	// nil).
	Model string
	// Trace optionally supplies a pre-collected single-GPU trace.
	Trace *trace.Trace
	// TraceBatch is the batch size to collect the trace at (default: the
	// platform-appropriate 128).
	TraceBatch int
	// TraceGPU names the GPU the trace is collected on (default: the
	// platform's GPU). A different GPU exercises Li's Model's cross-GPU
	// rescaling (Fig 11 case 1).
	TraceGPU string

	// Platform is the simulated multi-GPU system.
	Platform *gpu.Platform
	// Topology optionally overrides the platform's default topology.
	Topology *network.Topology

	Parallelism Parallelism
	// NumGPUs defaults to the platform's GPU count.
	NumGPUs int
	// GlobalBatch is the simulated total mini-batch (default: trace batch).
	GlobalBatch int
	// MicroBatches is the GPipe chunk count for PP.
	MicroBatches int
	// BucketBytes is the DDP gradient bucket size (default 25 MB).
	BucketBytes float64
	// Iterations to simulate (default 1).
	Iterations int
	// DPGroups is the number of data-parallel replicas for the hybrid
	// strategies (default 2).
	DPGroups int
	// Collective selects the gradient AllReduce algorithm: "auto"
	// (default: hierarchical on tiered topologies, ring otherwise),
	// "ring", "tree", or "hier".
	Collective string
	// TPRanks and PPStages size the tensor and pipeline dimensions of the
	// "dp+tp+pp" strategy (default 1 each); the data-parallel dimension is
	// NumGPUs / (TPRanks·PPStages).
	TPRanks  int
	PPStages int
	// FuseCompute collapses sequential op chains into single compute tasks
	// (see extrapolator.Config.FuseCompute). Needed for cluster-scale runs.
	FuseCompute bool
	// NetApproxTol enables the flow network's approximate-equilibrium mode
	// with the given relative tolerance (0 = exact, the default). Replay
	// digests are only stable on the exact path.
	NetApproxTol float64
	// InferenceOnly simulates forward-only execution (no backward pass, no
	// gradient synchronization, no optimizer).
	InferenceOnly bool
	// ComputeModel selects the operator performance model: "li" (default,
	// the paper's Li's Model regression), "roofline" (NeuSight-style pooled
	// device roofline), or "hybrid" (Li where the per-type fit is size-
	// diverse, roofline otherwise — §8.2's alternative-model integration).
	ComputeModel string
	// Clock supplies wall-clock readings for Result.WallClock (the paper's
	// Fig 14 simulator-runtime metric). The sim core never reads the host
	// clock itself — triosimvet's no-wallclock analyzer enforces that — so
	// callers that want the metric pass time.Now here. Nil leaves WallClock
	// zero.
	Clock func() time.Time
	// Telemetry enables the unified telemetry layer: a Collector observes
	// task completions, network flows, and engine dispatch, and Result.Report
	// carries the structured RunReport. Observation is side-effect-free, so
	// Result.EventDigest is identical with or without it.
	Telemetry bool
	// Metrics optionally supplies the registry the Collector populates
	// (implies Telemetry). Share one registry with a monitor.RTM to serve a
	// live Prometheus /metrics surface.
	Metrics *telemetry.Registry
	// SpanTrace enables the span recorder: Result.Spans carries the
	// virtual-time span log (one span per task and fault window plus counter
	// series) and Result.CriticalPath its critical-path analysis. Like
	// Telemetry, observation is side-effect-free: Result.EventDigest is
	// identical with or without it (pinned by a regression test).
	SpanTrace bool
	// Hooks are extra engine hooks registered before the run (e.g. a
	// monitor.RTM progress hook). Hooks must not schedule events.
	Hooks []sim.Hook
	// Context optionally bounds the simulation: the engine polls ctx.Err()
	// periodically during dispatch and terminates early, and the run returns
	// the context's error. internal/sweep uses this for per-scenario timeouts
	// and sweep-wide cancellation. Nil means no cancellation.
	Context context.Context
	// Cache optionally shares collected traces and fitted operator timers
	// across simulations: scenarios with the same (model, trace batch, GPU
	// spec, noise amplitude) reuse one immutable trace instead of rebuilding
	// it. internal/sweep and cmd/experiments set this by default; a supplied
	// Trace bypasses the cache. Cached values are shared read-only — see
	// docs/PERFORMANCE.md for the keying rules and copy-on-write contract.
	Cache *tracecache.Store
	// Faults optionally injects a deterministic fault schedule: degraded or
	// dead links re-solve the flow network's fair shares mid-run, GPU
	// slowdown windows stretch compute tasks (stragglers), and GPUFail
	// events drive the checkpoint/restart resilience overlay
	// (Result.Resilience, Result.Goodput). An empty or all-no-op schedule
	// leaves the run bit-identical to Faults being nil. See docs/RESILIENCE.md.
	Faults *faults.Schedule
}

// telemetryOn reports whether a Collector should run.
func (c *Config) telemetryOn() bool { return c.Telemetry || c.Metrics != nil }

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Platform == nil {
		return out, fmt.Errorf("core: no platform")
	}
	if out.NumGPUs == 0 {
		out.NumGPUs = out.Platform.NumGPUs
	}
	if out.TraceBatch == 0 {
		out.TraceBatch = 128
	}
	if out.TraceGPU == "" {
		out.TraceGPU = out.Platform.GPU.Name
	}
	if out.Parallelism == "" {
		out.Parallelism = Single
	}
	if out.Iterations == 0 {
		out.Iterations = 1
	}
	return out, nil
}

// Result is the simulator's output.
type Result struct {
	// TotalTime is the simulated end-to-end time for all iterations.
	TotalTime sim.VTime
	// PerIteration is TotalTime / iterations.
	PerIteration sim.VTime
	// ComputeTime is the union time during which at least one GPU computed.
	ComputeTime sim.VTime
	// CommTime is the union time during which at least one inter-GPU
	// transfer was in flight.
	CommTime sim.VTime
	// HostLoadTime is the union time of host→GPU input staging.
	HostLoadTime sim.VTime
	// Tasks is the extrapolated graph size.
	Tasks int
	// Events is the number of engine events dispatched.
	Events uint64
	// WallClock is how long the simulation itself took to run (the paper's
	// Fig 14 metric). Zero unless Config.Clock was set.
	WallClock time.Duration
	// EventDigest is the FNV-1a digest of the dispatched event schedule
	// (time, handler, sequence). Identical configurations must produce
	// identical digests; triosimvet -replay uses this as its runtime
	// determinism gate.
	EventDigest uint64
	// Report is the structured telemetry RunReport (nil unless
	// Config.Telemetry or Config.Metrics enabled collection).
	Report *telemetry.RunReport
	// Spans is the virtual-time span log (nil unless Config.SpanTrace).
	// Export with Spans.WriteChromeTrace for Perfetto / chrome://tracing.
	Spans *spantrace.Log
	// CriticalPath is the makespan-setting chain extracted from Spans with
	// per-category attribution and a near-critical slack table (nil unless
	// Config.SpanTrace).
	CriticalPath *spantrace.Report
	// Resilience is the checkpoint/restart overlay's accounting (nil unless
	// Config.Faults was set): the makespan extended with checkpoint pauses,
	// failure restarts, and replayed work.
	Resilience *faults.ResilienceResult
	// Goodput is useful vtime / total vtime under the fault schedule (1
	// when no failure fired and no checkpoint policy was set). Zero unless
	// Config.Faults was set.
	Goodput float64
}

// BuildTopology constructs the platform's default interconnect.
func BuildTopology(p *gpu.Platform) *network.Topology {
	cfg := network.Config{
		NumGPUs:       p.NumGPUs,
		LinkBandwidth: p.LinkBandwidth,
		LinkLatency:   p.LinkLatency,
		HostBandwidth: p.HostBandwidth,
		HostLatency:   p.HostLatency,
	}
	switch p.Topology {
	case gpu.TopoPCIeTree:
		return network.PCIeTree(cfg)
	case gpu.TopoRing:
		return network.Ring(cfg)
	case gpu.TopoMesh:
		// Square-ish mesh.
		rows := 1
		for rows*rows < p.NumGPUs {
			rows++
		}
		cols := (p.NumGPUs + rows - 1) / rows
		return network.Mesh(rows, cols, cfg)
	default:
		return network.Switch(cfg)
	}
}

// collectTrace returns the configured trace, collecting one from the model
// zoo + hardware emulator — or the shared trace cache — when none was
// supplied. Traces returned through the cache are shared read-only.
func collectTrace(cfg Config) (*trace.Trace, error) {
	if cfg.Trace != nil {
		return cfg.Trace, nil
	}
	if cfg.Model == "" {
		return nil, fmt.Errorf("core: neither Trace nor Model given")
	}
	spec, err := gpu.SpecByName(cfg.TraceGPU)
	if err != nil {
		return nil, err
	}
	if cfg.Cache == nil {
		return hwsim.CollectTrace(cfg.Model, cfg.TraceBatch, spec)
	}
	return cfg.Cache.GetTrace(traceKey(cfg.Model, cfg.TraceBatch, spec),
		func() (*trace.Trace, error) {
			return hwsim.CollectTrace(cfg.Model, cfg.TraceBatch, spec)
		})
}

// traceKey content-addresses a zoo trace: everything that influences the
// collected bytes (model, batch, the full GPU spec by value, and the
// stamping timer's noise amplitude) is part of the key.
func traceKey(model string, batch int, spec *gpu.Spec) tracecache.Key {
	return tracecache.Key{
		Model:    model,
		Batch:    batch,
		Spec:     *spec,
		NoiseAmp: hwsim.DefaultNoiseAmp,
	}
}

// extrapolate builds the task graph for the configured parallelism.
func extrapolate(cfg Config, tr *trace.Trace, topo *network.Topology,
	timer extrapolator.OpTimer, effects hwsim.Effects,
	collLog *telemetry.CollectiveLog) (*extrapolator.Result, error) {

	ecfg := extrapolator.Config{
		Trace:        tr,
		Topo:         topo,
		NumGPUs:      cfg.NumGPUs,
		Timer:        timer,
		Effects:      effects,
		GlobalBatch:  cfg.GlobalBatch,
		MicroBatches: cfg.MicroBatches,
		BucketBytes:  cfg.BucketBytes,
		Iterations:   cfg.Iterations,
		Collective:   cfg.Collective,
		FuseCompute:  cfg.FuseCompute,
		ForwardOnly:  cfg.InferenceOnly,
		Collectives:  collLog,
	}
	dp, tp, pp, err := gridPoint(cfg)
	if err != nil {
		return nil, err
	}
	switch cfg.Parallelism {
	case Single:
		ecfg.NumGPUs = 1
		return extrapolator.SingleGPU(ecfg)
	case DP:
		return extrapolator.DataParallel(ecfg, false)
	case DDP:
		return extrapolator.DataParallel(ecfg, true)
	case ZeRO1:
		return extrapolator.DataParallelZeRO(ecfg)
	case TP:
		return extrapolator.TensorParallel(ecfg)
	case DPTP:
		return extrapolator.HybridDPTP(ecfg, dp)
	case PP:
		return extrapolator.PipelineParallel(ecfg)
	case DPPP:
		return extrapolator.HybridDPPP(ecfg, dp)
	}
	// dp+tp+pp: gridPoint has rejected every other strategy.
	return extrapolator.Hybrid3D(ecfg, dp, tp, pp)
}

// gridPoint resolves the configured strategy to its (dp, tp, pp) point of
// the DP×TP×PP grid: the data-parallel family and single-GPU runs are pure
// replicas, TP and PP one replica, the two-way hybrids split NumGPUs into
// DPGroups replicas, and dp+tp+pp takes TPRanks × PPStages (default 1 each)
// with dp filling the rest.
func gridPoint(cfg Config) (dp, tp, pp int, err error) {
	n := cfg.NumGPUs
	switch cfg.Parallelism {
	case Single:
		return 1, 1, 1, nil
	case DP, DDP, ZeRO1:
		return n, 1, 1, nil
	case TP:
		return 1, n, 1, nil
	case PP:
		return 1, 1, n, nil
	case DPTP, DPPP:
		g := hybridGroups(cfg)
		if n%g != 0 {
			return 0, 0, 0, fmt.Errorf("core: %d GPUs not divisible into %d groups",
				n, g)
		}
		if cfg.Parallelism == DPTP {
			return g, n / g, 1, nil
		}
		return g, 1, n / g, nil
	case DPTPPP:
		tp, pp := max(cfg.TPRanks, 1), max(cfg.PPStages, 1)
		if n%(tp*pp) != 0 {
			return 0, 0, 0, fmt.Errorf("core: %d GPUs not divisible by tp·pp = %d×%d",
				n, tp, pp)
		}
		return n / (tp * pp), tp, pp, nil
	}
	return 0, 0, 0, fmt.Errorf("core: unknown parallelism %q", cfg.Parallelism)
}

// observeConfig is the observation half of Config and ServeConfig.
type observeConfig struct {
	spanTrace bool
	telemetry bool
	metrics   *telemetry.Registry
	hooks     []sim.Hook
	ctx       context.Context
}

// attach wires one run's optional observers in the order Simulate and Serve
// both rely on: the span recorder, the telemetry collector, the caller's
// hooks, then the context poll. observe registers a task observer with the
// executor or the serving cluster; g may be nil. Observation never
// schedules events, so the replay digest is the same with or without it.
// The recorder and the collector are nil when off; with the collector on,
// the caller feeds a task.GPUTime and hands it to Finalize.
func (oc observeConfig) attach(eng *sim.SerialEngine, net *network.FlowNetwork,
	topo *network.Topology, g *task.Graph, collLog *telemetry.CollectiveLog,
	observe func(task.Observer)) (*spantrace.Recorder, *telemetry.Collector,
	error) {

	var rec *spantrace.Recorder
	if oc.spanTrace {
		rec = spantrace.NewRecorder(g, topo)
		observe(rec)
		net.Observe(rec)
		eng.RegisterHook(rec.EngineHook(eng.Pending))
	}
	var coll *telemetry.Collector
	if oc.telemetry {
		reg := oc.metrics
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		coll = telemetry.NewCollector(reg, topo, collLog)
		eng.RegisterHook(coll.EngineHook(eng.Pending))
		observe(coll)
		net.Observe(coll)
	}
	for _, h := range oc.hooks {
		eng.RegisterHook(h)
	}
	if ctx := oc.ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: simulation canceled: %w", err)
		}
		// Poll the context every 1024 dispatches: ctx.Err() is a mutex
		// acquisition, too expensive per event, and cancellation latency of
		// ~1k events is fine for sweep timeouts.
		var dispatched uint64
		eng.RegisterHook(sim.HookFunc(func(hc sim.HookCtx) {
			if hc.Pos != sim.HookPosAfterEvent {
				return
			}
			dispatched++
			if dispatched&1023 == 0 && ctx.Err() != nil {
				eng.Terminate()
			}
		}))
	}
	return rec, coll, nil
}

// execute runs a task graph over the platform network and packages results.
// ckptCost is the resolved per-checkpoint pause for the resilience overlay
// (zero when Config.Faults carries no checkpoint policy).
func execute(cfg Config, topo *network.Topology, res *extrapolator.Result,
	rampBytes float64, collLog *telemetry.CollectiveLog,
	ckptCost sim.VTime) (*Result, error) {

	var start time.Time
	if cfg.Clock != nil {
		start = cfg.Clock()
	}
	eng := sim.NewSerialEngine()
	digest := sim.NewDigestHook()
	eng.RegisterHook(digest)
	net := network.NewFlowNetwork(eng, topo)
	net.RampBytes = rampBytes
	net.ApproxTol = cfg.NetApproxTol
	x := task.NewExecutor(eng, net, res.Graph, nil)

	// Self-profiling: time the max-min solver on the injected clock (the sim
	// core never reads the host clock itself). Wall time feeds counter
	// tracks and gauges only — virtual time is unaffected.
	net.SolveClock = cfg.Clock

	rec, coll, err := observeConfig{
		spanTrace: cfg.SpanTrace,
		telemetry: cfg.telemetryOn(),
		metrics:   cfg.Metrics,
		hooks:     cfg.Hooks,
		ctx:       cfg.Context,
	}.attach(eng, net, topo, res.Graph, collLog, x.Observe)
	if err != nil {
		return nil, err
	}
	if coll != nil {
		x.GPUTime = task.NewGPUTime(topo)
	}

	var inj *faults.Injector
	if cfg.Faults != nil {
		inj, err = faults.NewInjector(eng, net, cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		// Straggler model: compute durations stretch by the enclosing
		// GPUSlowdown window's factor. Link windows become engine events
		// that rewrite bandwidth and re-solve the fair shares; an empty
		// schedule arms nothing and the run stays digest-identical.
		x.Stretch = inj.Factor
		inj.Arm()
		if rec != nil {
			for _, w := range inj.Windows() {
				rec.AddFault(w.Label(), w.Start, w.End)
			}
			for _, f := range inj.Failures() {
				rec.AddFault(faults.FailLabel(f), f.At, f.At)
			}
		}
	}

	makespan, err := x.Run()
	if err != nil {
		if cfg.Context != nil && cfg.Context.Err() != nil {
			// Terminate left the executor mid-graph; the context error is
			// the cause, not the "stalled" symptom.
			return nil, fmt.Errorf("core: simulation canceled: %w",
				cfg.Context.Err())
		}
		return nil, err
	}
	out := &Result{
		TotalTime:    makespan,
		PerIteration: makespan / sim.VTime(cfg.Iterations),
		ComputeTime:  x.BusyTime(task.Compute),
		CommTime:     x.BusyTime(task.Comm),
		HostLoadTime: x.BusyTime(task.HostLoad),
		Tasks:        res.Graph.Len(),
		Events:       eng.EventCount(),
		EventDigest:  digest.Sum64(),
	}
	if cfg.Clock != nil {
		out.WallClock = cfg.Clock().Sub(start)
	}
	if rec != nil {
		// End-of-run self-profiling totals on the counter tracks. The solver
		// wall-time sample exists only when a clock was injected, so traces
		// from clockless runs stay fully deterministic.
		rec.Sample(spantrace.CounterQueueHighWatr, eng.CurrentTime(),
			float64(eng.QueueHighWater()))
		if cfg.Clock != nil {
			rec.Sample(spantrace.CounterSolveWallMs, eng.CurrentTime(),
				net.SolveWall.Seconds()*1e3)
		}
		out.Spans = rec.Finalize()
		out.CriticalPath = out.Spans.CriticalPath(0)
	}
	if cfg.Faults != nil {
		rc := faults.ResilienceConfig{Work: makespan}
		if cp := cfg.Faults.Checkpoint; cp != nil {
			rc.Interval = cp.Interval
			rc.CheckpointCost = ckptCost
			rc.RestartCost = cp.Restart
		}
		for _, f := range inj.Failures() {
			rc.Failures = append(rc.Failures, f.At)
		}
		rres, err := faults.Evaluate(rc)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		out.Resilience = rres
		out.Goodput = rres.Goodput
	}
	if coll != nil {
		numGPUs := cfg.NumGPUs
		if cfg.Parallelism == Single {
			numGPUs = 1
		}
		out.Report = coll.Finalize(telemetry.RunInfo{
			Model:           cfg.Model,
			Platform:        cfg.Platform.Name,
			Parallelism:     string(cfg.Parallelism),
			NumGPUs:         numGPUs,
			Iterations:      cfg.Iterations,
			TotalSec:        makespan.Seconds(),
			PerIterationSec: out.PerIteration.Seconds(),
			Events:          out.Events,
			QueueHighWater:  eng.QueueHighWater(),
			NetTotalBytes:   net.TotalBytes,
			NetTransfers:    net.TotalTransfers,
			NetSolveSeconds: net.SolveWall.Seconds(),
			Parallel:        res.Meta,
			GPUTime:         x.GPUTime,
		})
		out.Report.CriticalPath = out.CriticalPath
		out.Report.Engine.EventDigest = fmt.Sprintf("%#x", out.EventDigest)
		if cfg.Clock != nil && out.WallClock > 0 {
			out.Report.Engine.WallSeconds = out.WallClock.Seconds()
			out.Report.Engine.EventsPerSecond =
				float64(out.Events) / out.Report.Engine.WallSeconds
		}
		if cfg.Faults != nil {
			out.Report.Faults = faultReport(inj, out.Resilience, makespan)
		}
	}
	return out, nil
}

// faultReport converts the injector's windows and the resilience overlay's
// accounting into the telemetry RunReport section.
func faultReport(inj *faults.Injector, rr *faults.ResilienceResult,
	makespan sim.VTime) *telemetry.FaultReport {

	ws := inj.Windows()
	fr := &telemetry.FaultReport{
		DegradedSec:   faults.DegradedSeconds(ws, makespan),
		Failures:      rr.Failures,
		Checkpoints:   rr.Checkpoints,
		CheckpointSec: rr.CheckpointTime.Seconds(),
		ReplaySec:     rr.ReplayTime.Seconds(),
		RestartSec:    rr.RestartTime.Seconds(),
		UsefulSec:     rr.UsefulTime.Seconds(),
		ExtendedSec:   rr.TotalTime.Seconds(),
		Goodput:       rr.Goodput,
	}
	for _, w := range ws {
		fr.Windows = append(fr.Windows, telemetry.FaultWindow{
			Kind:     string(w.Kind),
			Resource: w.ResourceName(),
			Factor:   w.Factor,
			StartSec: w.Start.Seconds(),
			EndSec:   w.End.Seconds(),
		})
	}
	for _, f := range inj.Failures() {
		fr.Windows = append(fr.Windows, telemetry.FaultWindow{
			Kind:     string(faults.GPUFail),
			Resource: fmt.Sprintf("gpu%d", f.GPU),
			StartSec: f.At.Seconds(),
			EndSec:   f.At.Seconds(),
		})
	}
	return fr
}

// Simulate is TrioSim's prediction path: fit Li's Model on the single-GPU
// trace (rescaling it when the trace came from a different GPU than the
// simulated platform), extrapolate to the multi-GPU configuration with no
// hardware protocol overheads, and execute over the lightweight network
// model.
func Simulate(cfg Config) (*Result, error) {
	p, err := planSimulate(cfg)
	if err != nil {
		return nil, err
	}
	return p.run()
}

// plan is a run whose task graph is built and ready to execute: the
// resolved configuration, its topology and extrapolated graph, and what
// execute needs besides.
type plan struct {
	cfg       Config
	topo      *network.Topology
	graph     *extrapolator.Result
	rampBytes float64
	collLog   *telemetry.CollectiveLog
	ckptCost  sim.VTime
}

// run executes the plan's graph and attaches the trace-cache counters.
func (p *plan) run() (*Result, error) {
	res, err := execute(p.cfg, p.topo, p.graph, p.rampBytes, p.collLog,
		p.ckptCost)
	if err != nil {
		return nil, err
	}
	attachCacheStats(p.cfg, res)
	return res, nil
}

// planSimulate builds Simulate's task graph.
func planSimulate(cfg Config) (*plan, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	tr, err := collectTrace(cfg)
	if err != nil {
		return nil, err
	}
	timer, err := fitTimerCached(cfg, tr)
	if err != nil {
		return nil, err
	}
	topo := cfg.Topology
	if topo == nil {
		topo = BuildTopology(cfg.Platform)
	}
	var collLog *telemetry.CollectiveLog
	if cfg.telemetryOn() {
		collLog = telemetry.NewCollectiveLog()
	}
	eres, err := extrapolate(cfg, tr, topo, timer, hwsim.NoEffects, collLog)
	if err != nil {
		return nil, err
	}
	return &plan{cfg: cfg, topo: topo, graph: eres, collLog: collLog,
		ckptCost: checkpointCost(cfg, tr)}, nil
}

// fitTimer fits the configured operator performance model on the trace,
// rescaling Li's Model when the trace came from a different GPU than the
// simulated platform.
func fitTimer(cfg Config, tr *trace.Trace) (extrapolator.OpTimer, error) {
	crossGPU := tr.Device != cfg.Platform.GPU.Name
	switch cfg.ComputeModel {
	case "", "li":
		model, err := perfmodel.Fit(tr)
		if err != nil {
			return nil, err
		}
		if crossGPU {
			from, err := gpu.SpecByName(tr.Device)
			if err != nil {
				return nil, err
			}
			model = model.Rescale(from, &cfg.Platform.GPU)
		}
		return model, nil
	case "roofline":
		if crossGPU {
			return nil, fmt.Errorf("core: roofline model has no cross-GPU rescaling (trace from %s, platform %s)",
				tr.Device, cfg.Platform.GPU.Name)
		}
		return perfmodel.FitRoofline(tr)
	case "hybrid":
		if crossGPU {
			return nil, fmt.Errorf("core: hybrid model has no cross-GPU rescaling (trace from %s, platform %s)",
				tr.Device, cfg.Platform.GPU.Name)
		}
		return perfmodel.FitHybrid(tr)
	}
	return nil, fmt.Errorf("core: unknown compute model %q", cfg.ComputeModel)
}

// fitTimerCached memoizes fitTimer through the trace cache when the trace is
// itself cache-addressable (a zoo trace, not a caller-supplied one). Fitting
// is pure and fitted models are read-only at prediction time, so sharing one
// model across scenarios is safe.
func fitTimerCached(cfg Config, tr *trace.Trace) (extrapolator.OpTimer, error) {
	if cfg.Cache == nil || cfg.Trace != nil {
		return fitTimer(cfg, tr)
	}
	spec, err := gpu.SpecByName(cfg.TraceGPU)
	if err != nil {
		return nil, err
	}
	cm := cfg.ComputeModel
	if cm == "" {
		cm = "li"
	}
	tk := tracecache.TimerKey{
		Trace:        traceKey(cfg.Model, cfg.TraceBatch, spec),
		ComputeModel: cm,
		Target:       cfg.Platform.GPU,
	}
	return cfg.Cache.GetTimer(tk, func() (tracecache.OpTimer, error) {
		return fitTimer(cfg, tr)
	})
}

// attachCacheStats copies the shared store's counters into the run's
// telemetry report. The counters are store-wide — they accumulate across
// every simulation sharing the cache — so this section is explicitly outside
// the RunReport byte-identity guarantee and is omitted when no cache is
// configured.
func attachCacheStats(cfg Config, res *Result) {
	if cfg.Cache == nil {
		return
	}
	st := cfg.Cache.Stats()
	if res.Report != nil {
		res.Report.TraceCache = &telemetry.TraceCacheStat{
			TraceHits:   st.TraceHits,
			TraceMisses: st.TraceMisses,
			TimerHits:   st.TimerHits,
			TimerMisses: st.TimerMisses,
			Traces:      st.Traces,
			Timers:      st.Timers,
			Bytes:       st.Bytes,
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Gauge("triosim_tracecache_trace_hits", "", "",
			"trace cache trace hits (store-wide)").Set(float64(st.TraceHits))
		cfg.Metrics.Gauge("triosim_tracecache_trace_misses", "", "",
			"trace cache trace misses (store-wide)").Set(float64(st.TraceMisses))
		cfg.Metrics.Gauge("triosim_tracecache_timer_hits", "", "",
			"trace cache timer hits (store-wide)").Set(float64(st.TimerHits))
		cfg.Metrics.Gauge("triosim_tracecache_timer_misses", "", "",
			"trace cache timer misses (store-wide)").Set(float64(st.TimerMisses))
		cfg.Metrics.Gauge("triosim_tracecache_bytes", "", "",
			"trace cache resident bytes (store-wide)").Set(float64(st.Bytes))
	}
	if res.Spans != nil {
		// Store-wide totals on the trace's counter tracks, stamped at the end
		// of the run.
		at := res.TotalTime
		res.Spans.Sample(spantrace.CounterCacheTrHits, at, float64(st.TraceHits))
		res.Spans.Sample(spantrace.CounterCacheTrMiss, at, float64(st.TraceMisses))
		res.Spans.Sample(spantrace.CounterCacheTmHits, at, float64(st.TimerHits))
		res.Spans.Sample(spantrace.CounterCacheTmMiss, at, float64(st.TimerMisses))
		res.Spans.Sample(spantrace.CounterCacheBytes, at, float64(st.Bytes))
	}
}

// checkpointCost resolves the per-checkpoint pause for the resilience
// overlay. An explicit Checkpoint.Cost wins; zero derives it from the
// checkpointed state's size — weights plus optimizer state, the tensors a
// training checkpoint must persist — moved over the host staging path.
func checkpointCost(cfg Config, tr *trace.Trace) sim.VTime {
	if cfg.Faults == nil || cfg.Faults.Checkpoint == nil {
		return 0
	}
	if cp := cfg.Faults.Checkpoint; cp.Cost.After(0) {
		return cp.Cost
	}
	// Optimizer state mirrors memory.Estimate's default: 4 bytes/param
	// (SGD with momentum), the same size as the fp32 weights.
	bytes := 2 * float64(tr.WeightBytes())
	if cfg.Platform.HostBandwidth <= 0 {
		return 0
	}
	return cfg.Platform.HostLatency + sim.VTime(bytes/cfg.Platform.HostBandwidth)
}

// GroundTruth is the reference-hardware path standing in for the paper's
// physical platforms: the workload is "executed" natively at the simulated
// sizes with hwsim's nonlinear operator timer and the platform's protocol
// overheads. TrioSim's predictions are validated against this.
func GroundTruth(cfg Config) (*Result, error) {
	p, err := planGroundTruth(cfg)
	if err != nil {
		return nil, err
	}
	return p.run()
}

// planGroundTruth builds GroundTruth's task graph.
func planGroundTruth(cfg Config) (*plan, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Model == "" {
		return nil, fmt.Errorf("core: ground truth requires a zoo model name")
	}
	// Native trace on the platform's own GPU at the simulated global batch:
	// real hardware does not extrapolate across batch sizes or devices.
	batch := cfg.GlobalBatch
	if batch == 0 {
		batch = cfg.TraceBatch
	}
	collect := func() (*trace.Trace, error) {
		return hwsim.CollectTrace(cfg.Model, batch, &cfg.Platform.GPU)
	}
	var tr *trace.Trace
	if cfg.Cache != nil {
		tr, err = cfg.Cache.GetTrace(traceKey(cfg.Model, batch,
			&cfg.Platform.GPU), collect)
	} else {
		tr, err = collect()
	}
	if err != nil {
		return nil, err
	}
	gcfg := cfg
	gcfg.GlobalBatch = batch
	topo := cfg.Topology
	if topo == nil {
		topo = BuildTopology(cfg.Platform)
	}
	timer := hwsim.NewTimer(&cfg.Platform.GPU)
	effects := hwsim.PlatformEffects(cfg.Platform)
	var collLog *telemetry.CollectiveLog
	if gcfg.telemetryOn() {
		collLog = telemetry.NewCollectiveLog()
	}
	eres, err := extrapolate(gcfg, tr, topo, timer, effects, collLog)
	if err != nil {
		return nil, err
	}
	return &plan{cfg: gcfg, topo: topo, graph: eres,
		rampBytes: effects.CommRampBytes, collLog: collLog,
		ckptCost: checkpointCost(gcfg, tr)}, nil
}

func hybridGroups(cfg Config) int {
	if cfg.DPGroups > 0 {
		return cfg.DPGroups
	}
	return 2
}

// Comparison holds a predicted-vs-hardware pair, the paper's validation
// unit.
type Comparison struct {
	Model     string
	Predicted sim.VTime
	Actual    sim.VTime
	// Error is |Predicted-Actual| / Actual.
	Error float64
	// Normalized is Predicted / Actual (the paper's normalized-time bars).
	Normalized float64
}

// Validate runs both paths and compares per-iteration times.
func Validate(cfg Config) (*Comparison, error) {
	cmp, _, _, err := ValidatePair(cfg)
	return cmp, err
}

// ValidatePair is Validate returning the two underlying results as well, so
// callers can export the prediction's telemetry or span trace alongside the
// comparison (cmd/experiments does).
func ValidatePair(cfg Config) (*Comparison, *Result, *Result, error) {
	pred, err := Simulate(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	actual, err := GroundTruth(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	p := float64(pred.PerIteration)
	a := float64(actual.PerIteration)
	diff := p - a
	if diff < 0 {
		diff = -diff
	}
	return &Comparison{
		Model:      cfg.Model,
		Predicted:  pred.PerIteration,
		Actual:     actual.PerIteration,
		Error:      diff / a,
		Normalized: p / a,
	}, pred, actual, nil
}

// MemoryReport is the per-GPU peak-memory estimate for a configuration.
type MemoryReport struct {
	PerGPU []memory.Footprint
	// Fits is false when some GPU exceeds its memory capacity.
	Fits bool
	// WorstUtilization is the highest footprint/capacity fraction.
	WorstUtilization float64
}

// MemoryFootprint estimates whether the configured training run fits in GPU
// memory — the constraint that forces the paper to trace Llama at batch 16
// and to exclude batch-256 transformers. Hybrid strategies are estimated as
// their inner strategy over the per-replica batch share.
func MemoryFootprint(cfg Config) (*MemoryReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	tr, err := collectTrace(cfg)
	if err != nil {
		return nil, err
	}
	batch := cfg.GlobalBatch
	if batch == 0 {
		batch = tr.BatchSize
	}

	dp, tp, pp, err := gridPoint(cfg)
	if err != nil {
		return nil, err
	}
	mcfg := memory.Config{Trace: tr, GlobalBatch: batch}
	switch cfg.Parallelism {
	case Single:
		mcfg.Strategy, mcfg.NumGPUs = memory.Single, 1
	case DP, DDP:
		mcfg.Strategy, mcfg.NumGPUs = memory.DP, cfg.NumGPUs
	case ZeRO1:
		mcfg.Strategy, mcfg.NumGPUs = memory.ZeRO1, cfg.NumGPUs
	case TP, DPTP:
		// One replica over its batch share, batch·tp·pp/NumGPUs = batch/dp.
		mcfg.Strategy, mcfg.NumGPUs, mcfg.GlobalBatch = memory.TP, tp, batch/dp
	default:
		// PP, dp+pp and dp+tp+pp: one pipeline replica. For dp+tp+pp this
		// is a conservative per-GPU bound pricing the pipeline dimension
		// only (each stage further TP-shards its weights, so the true
		// footprint is lower).
		mcfg.Strategy, mcfg.NumGPUs, mcfg.GlobalBatch = memory.PP, pp, batch/dp
		mcfg.StageOf = extrapolator.StageAssignment(tr, pp)
	}
	fp, err := memory.Estimate(mcfg)
	if err != nil {
		return nil, err
	}
	fits, worst := memory.Fits(fp, cfg.Platform.GPU.MemCapacity)
	return &MemoryReport{PerGPU: fp, Fits: fits, WorstUtilization: worst}, nil
}
