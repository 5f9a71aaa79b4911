// Package core is TrioSim proper: it wires the tracer substitute, the
// multi-GPU trace extrapolator, the linear-regression operator performance
// model, and the lightweight network model into a single simulator with the
// paper's inputs (a single-GPU trace, a network topology, GPU parameters,
// and a parallelism scheme) and outputs (predicted execution time, per-phase
// communication/computation breakdown, and a virtual-time span log).
package core

import (
	"cmp"
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

// telemetryOn reports whether a Collector should run (Telemetry or Metrics).
func telemetryOn(on bool, reg *telemetry.Registry) bool { return on || reg != nil }

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

// collectTrace returns the zoo trace k names, through the shared trace cache
// when there is one. Traces returned through the cache are shared read-only.
func collectTrace(cache *tracecache.Store, k tracecache.Key) (*trace.Trace,
	error) {

	collect := func() (*trace.Trace, error) {
		return hwsim.CollectTrace(k.Model, k.Batch, &k.Spec)
	}
	if cache == nil {
		return collect()
	}
	return cache.GetTrace(k, collect)
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

// source names the three things prediction and ground truth differ in: the
// trace (native: Model at the global batch on the platform's own GPU, as real
// hardware runs it; else Config.Trace or Model at TraceBatch on TraceGPU),
// the operator timer and the hardware effects.
type source struct {
	native  bool
	timer   func(Config, *trace.Trace) (extrapolator.OpTimer, error)
	effects func(*gpu.Platform) hwsim.Effects
}

var (
	prediction  = source{timer: fitTimerCached, effects: noEffects}
	groundTruth = source{native: true, timer: exactTimer,
		effects: hwsim.PlatformEffects}
)

func exactTimer(cfg Config, _ *trace.Trace) (extrapolator.OpTimer, error) {
	return hwsim.NewTimer(&cfg.Platform.GPU), nil
}

func noEffects(*gpu.Platform) hwsim.Effects { return hwsim.NoEffects }

// trace returns the trace s extrapolates for cfg (already defaulted) and the
// run's pipeline partition over pp stages: stageOf if given, else balanced
// on the prediction's trace whichever trace s extrapolates (a native one may
// balance differently). A native source reads the prediction's trace only
// to balance: one stage's partition is nil.
func (s source) trace(cfg Config, pp int, stageOf []int) (*trace.Trace, []int, error) {
	if cfg.Model == "" && (s.native || cfg.Trace == nil) {
		return nil, nil, fmt.Errorf(
			"core: no Model (ground truth needs a zoo model, prediction one or a Trace)")
	}
	balance := pp > 1 && stageOf == nil
	tr, k := cfg.Trace, tracecache.Key{} // a supplied trace keys zero
	if tr == nil && (!s.native || balance) {
		spec, err := gpu.SpecByName(cfg.TraceGPU)
		if err != nil {
			return nil, nil, err
		}
		k = traceKey(cfg.Model, cfg.TraceBatch, spec)
		if tr, err = collectTrace(cfg.Cache, k); err != nil {
			return nil, nil, err
		}
	}
	if balance {
		stageOf = extrapolator.StageAssignment(tr, pp)
	}
	if !s.native {
		return tr, stageOf, nil
	}
	if nk := traceKey(cfg.Model, cmp.Or(cfg.GlobalBatch, cfg.TraceBatch),
		&cfg.Platform.GPU); nk != k {
		tr, err := collectTrace(cfg.Cache, nk)
		return tr, stageOf, err
	}
	return tr, stageOf, nil
}

// extrapolate builds strategy par's task graph at grid point (dp, tp, pp).
func extrapolate(par Parallelism, ecfg extrapolator.Config,
	dp, tp, pp int) (*extrapolator.Result, error) {

	switch par {
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

// runConfig is what the run harness reads from Config or ServeConfig.
type runConfig struct {
	topo                 *network.Topology
	rampBytes, approxTol float64
	clock                func() time.Time
	spanTrace, telemetry bool
	metrics              *telemetry.Registry
	collLog              *telemetry.CollectiveLog
	hooks                []sim.Hook
	ctx                  context.Context
	faults               *faults.Schedule
	cache                *tracecache.Store
}

// run is the harness every simulation runs in, training and serving alike:
// the engine with its replay-digest hook, the flow network, the observers
// and the fault injector. The caller builds its driver (the task executor
// or the serving cluster) over eng and fabric, hands it to attach, runs it,
// and closes the run with finish. Faults and observers act on net alone.
type run struct {
	runConfig
	start   time.Time
	eng     *sim.SerialEngine
	digest  *sim.DigestHook
	net     *network.FlowNetwork
	fabric  network.Network
	rec     *spantrace.Recorder
	coll    *telemetry.Collector
	gpuTime *task.GPUTime
	inj     *faults.Injector
}

// newRun starts the wall clock and builds the engine, its digest hook, the
// flow network and the driver's fabric: the flow network, or GPU↔GPU
// circuits over it when the topology has them.
func newRun(c runConfig) *run {
	r := &run{runConfig: c}
	if c.clock != nil {
		r.start = c.clock()
	}
	r.eng = sim.NewSerialEngine()
	r.digest = sim.NewDigestHook()
	r.eng.RegisterHook(r.digest)
	r.net = network.NewFlowNetwork(r.eng, c.topo)
	r.net.RampBytes = c.rampBytes
	r.net.ApproxTol = c.approxTol
	// Self-profiling: time the max-min solver on the injected clock (the sim
	// core never reads the host clock itself). Wall time feeds counter
	// tracks and gauges only — virtual time is unaffected.
	r.net.SolveClock = c.clock
	r.fabric = r.net
	if c.topo.Circuits != nil {
		r.fabric = c.topo.Circuits.Over(r.eng, c.topo, r.net)
	}
	return r
}

// attach wires the observers and faults into the run's driver in the order
// the pins rely on: the span recorder, the telemetry collector, the run's
// after-dispatch hook, the caller's hooks, then the fault injector. observe
// registers a task observer with the driver; g names the recorder's tasks
// (nil for serving). The driver's GPUTime and Stretch fields receive the
// per-GPU time partition and the straggler model. Observation never
// schedules events, so the replay digest is the same with or without it.
func (r *run) attach(g *task.Graph, observe func(task.Observer),
	gpuTime **task.GPUTime, stretch *func(gpu int, at sim.VTime) float64) error {

	if r.spanTrace {
		r.rec = spantrace.NewRecorder(g, r.topo)
		observe(r.rec)
		r.net.Observe(r.rec)
	}
	if r.telemetry {
		reg := r.metrics
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		r.coll = telemetry.NewCollector(reg, r.topo, r.collLog)
		observe(r.coll)
		r.net.Observe(r.coll)
		r.gpuTime = task.NewGPUTime(r.topo)
		*gpuTime = r.gpuTime
	}
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			return r.failed(err)
		}
	}
	// The one observer hook goes before the caller's, so a monitor hook
	// reads a registry that already counts the event it sees.
	if r.rec != nil || r.coll != nil || r.ctx != nil {
		r.eng.RegisterHook(sim.HookFunc(r.afterDispatch))
	}
	for _, h := range r.hooks {
		r.eng.RegisterHook(h)
	}
	if r.faults == nil {
		return nil
	}
	inj, err := faults.NewInjector(r.eng, r.net, r.faults)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	r.inj = inj
	// Straggler model: compute durations stretch by the enclosing
	// GPUSlowdown window's factor. Link windows become engine events that
	// rewrite bandwidth and re-solve the fair shares; an empty schedule arms
	// nothing and the run stays digest-identical.
	*stretch = inj.Factor
	inj.Arm()
	if r.rec != nil {
		for _, w := range inj.Windows() {
			r.rec.AddFault(w.Label(), w.Start, w.End)
		}
		for _, f := range inj.Failures() {
			r.rec.AddFault(faults.FailLabel(f), f.At, f.At)
		}
	}
	return nil
}

// afterDispatch is the run's one observer hook. After each dispatch it reads
// the queue depth once for the span recorder and the collector, and polls
// the context every 1024 dispatches: ctx.Err() is a mutex acquisition, too
// expensive per event, and cancellation latency of ~1k events is fine for
// sweep timeouts.
func (r *run) afterDispatch(hc sim.HookCtx) {
	if hc.Pos != sim.HookPosAfterEvent {
		return
	}
	d := r.eng.Pending()
	if r.rec != nil {
		r.rec.QueueDepth(hc.Now, d)
	}
	if r.coll != nil {
		r.coll.Dispatched(hc.Item.(sim.Event), d)
	}
	if r.ctx != nil && r.eng.EventCount()&1023 == 0 && r.ctx.Err() != nil {
		r.eng.Terminate()
	}
}

// failed names the error a run stopped with: once the context is done,
// Terminate left the driver mid-run, and the context's error is the cause,
// not the "stalled" symptom.
func (r *run) failed(err error) error {
	if r.ctx != nil && r.ctx.Err() != nil {
		return fmt.Errorf("core: simulation canceled: %w", r.ctx.Err())
	}
	return err
}

// finish closes a completed run that ended at total and returns the Result
// fields every run shares. It stamps the wall clock, evaluates the
// checkpoint/restart overlay over total (ckptCost per checkpoint), samples
// the end-of-run counters at total, and finalizes the span log and the
// RunReport: info carries the driver's fields, finish adds the total, the
// engine, network and per-GPU ones, the report's engine and fault sections
// and the trace-cache totals.
func (r *run) finish(info telemetry.RunInfo, total,
	ckptCost sim.VTime) (*Result, error) {

	out := &Result{TotalTime: total, Events: r.eng.EventCount(),
		EventDigest: r.digest.Sum64()}
	if r.clock != nil {
		out.WallClock = r.clock().Sub(r.start)
	}
	if r.inj != nil {
		rc := faults.ResilienceConfig{Work: total}
		if cp := r.faults.Checkpoint; cp != nil {
			rc.Interval = cp.Interval
			rc.CheckpointCost = ckptCost
			rc.RestartCost = cp.Restart
		}
		for _, f := range r.inj.Failures() {
			rc.Failures = append(rc.Failures, f.At)
		}
		rr, err := faults.Evaluate(rc)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		out.Resilience, out.Goodput = rr, rr.Goodput
	}
	// The trace cache's counters are store-wide — they accumulate across
	// every simulation sharing the cache — so they stay outside the
	// RunReport byte-identity guarantee.
	var cache tracecache.Stats
	if r.cache != nil {
		cache = r.cache.Stats()
	}
	if r.rec != nil {
		// End-of-run self-profiling totals on the counter tracks. The solver
		// wall-time sample exists only when a clock was injected, so traces
		// from clockless runs stay fully deterministic.
		r.rec.Sample(spantrace.CounterQueueHighWatr, total,
			float64(r.eng.QueueHighWater()))
		if r.clock != nil {
			r.rec.Sample(spantrace.CounterSolveWallMs, total,
				r.net.SolveWall.Seconds()*1e3)
		}
		if r.cache != nil {
			r.rec.Sample(spantrace.CounterCacheTrHits, total, float64(cache.TraceHits))
			r.rec.Sample(spantrace.CounterCacheTrMiss, total, float64(cache.TraceMisses))
			r.rec.Sample(spantrace.CounterCacheTmHits, total, float64(cache.TimerHits))
			r.rec.Sample(spantrace.CounterCacheTmMiss, total, float64(cache.TimerMisses))
			r.rec.Sample(spantrace.CounterCacheBytes, total, float64(cache.Bytes))
		}
		out.Spans = r.rec.Finalize()
	}
	if r.coll == nil {
		return out, nil
	}
	info.TotalSec = total.Seconds()
	info.Events = out.Events
	info.QueueHighWater = r.eng.QueueHighWater()
	info.VirtualTimeSec = r.eng.CurrentTime().Seconds()
	info.NetTotalBytes = r.net.TotalBytes
	info.NetTransfers = r.net.TotalTransfers
	info.NetSolves = r.net.Solves
	info.NetSolveSeconds = r.net.SolveWall.Seconds()
	info.GPUTime = r.gpuTime
	out.Report = r.coll.Finalize(info)
	out.Report.Engine.EventDigest = fmt.Sprintf("%#x", out.EventDigest)
	if out.WallClock > 0 {
		out.Report.Engine.WallSeconds = out.WallClock.Seconds()
		out.Report.Engine.EventsPerSecond =
			float64(out.Events) / out.Report.Engine.WallSeconds
	}
	if r.inj != nil {
		out.Report.Faults = faultReport(r.inj, out.Resilience, total)
	}
	if r.cache != nil {
		out.Report.TraceCache = &telemetry.TraceCacheStat{
			TraceHits:   cache.TraceHits,
			TraceMisses: cache.TraceMisses,
			TimerHits:   cache.TimerHits,
			TimerMisses: cache.TimerMisses,
			Traces:      cache.Traces,
			Timers:      cache.Timers,
			Bytes:       cache.Bytes,
		}
		// Set after Finalize, so these gauges stay out of report.metrics.
		if reg := r.metrics; reg != nil {
			reg.Gauge("triosim_tracecache_trace_hits", "", "",
				"trace cache trace hits (store-wide)").Set(float64(cache.TraceHits))
			reg.Gauge("triosim_tracecache_trace_misses", "", "",
				"trace cache trace misses (store-wide)").Set(float64(cache.TraceMisses))
			reg.Gauge("triosim_tracecache_timer_hits", "", "",
				"trace cache timer hits (store-wide)").Set(float64(cache.TimerHits))
			reg.Gauge("triosim_tracecache_timer_misses", "", "",
				"trace cache timer misses (store-wide)").Set(float64(cache.TimerMisses))
			reg.Gauge("triosim_tracecache_bytes", "", "",
				"trace cache resident bytes (store-wide)").Set(float64(cache.Bytes))
		}
	}
	return out, nil
}

// run executes the plan's task graph over the run's network and packages
// results.
func (p *runPlan) run() (*Result, error) {
	cfg, res := p.cfg, p.graph
	r := newRun(runConfig{topo: p.topo, rampBytes: p.rampBytes,
		approxTol: cfg.NetApproxTol, clock: cfg.Clock, spanTrace: cfg.SpanTrace,
		telemetry: telemetryOn(cfg.Telemetry, cfg.Metrics), metrics: cfg.Metrics,
		collLog: p.collLog, hooks: cfg.Hooks, ctx: cfg.Context, faults: cfg.Faults,
		cache: cfg.Cache})
	x := task.NewExecutor(r.eng, r.fabric, res.Graph, nil)
	err := r.attach(res.Graph, x.Observe, &x.GPUTime, &x.Stretch)
	if err != nil {
		return nil, err
	}
	makespan, err := x.Run()
	if err != nil {
		return nil, r.failed(err)
	}
	numGPUs := cfg.NumGPUs
	if cfg.Parallelism == Single {
		numGPUs = 1
	}
	perIter := makespan / sim.VTime(cfg.Iterations)
	out, err := r.finish(telemetry.RunInfo{
		Model:           cfg.Model,
		Platform:        cfg.Platform.Name,
		Parallelism:     string(cfg.Parallelism),
		NumGPUs:         numGPUs,
		Iterations:      cfg.Iterations,
		PerIterationSec: perIter.Seconds(),
		Parallel:        res.Meta,
	}, makespan, p.ckptCost)
	if err != nil {
		return nil, err
	}
	out.PerIteration = perIter
	out.ComputeTime = x.BusyTime(task.Compute)
	out.CommTime = x.BusyTime(task.Comm)
	out.HostLoadTime = x.BusyTime(task.HostLoad)
	out.Tasks = res.Graph.Len()
	if out.Spans != nil {
		out.CriticalPath = out.Spans.CriticalPath(0)
	}
	if out.Report != nil {
		out.Report.CriticalPath = out.CriticalPath
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
	p, err := plan(cfg, prediction, nil)
	if err != nil {
		return nil, err
	}
	return p.run()
}

// runPlan is a run whose task graph is built and ready to execute: the
// resolved configuration, its topology, partition and extrapolated graph,
// and what running it needs besides (ckptCost is the resolved
// per-checkpoint pause for the resilience overlay, zero without a
// checkpoint policy).
type runPlan struct {
	cfg       Config
	topo      *network.Topology
	stageOf   []int
	graph     *extrapolator.Result
	rampBytes float64
	collLog   *telemetry.CollectiveLog
	ckptCost  sim.VTime
}

// plan builds the task graph of cfg's run from src, the one path Simulate
// and GroundTruth share. stageOf is the pipeline partition when the caller
// has already balanced it (a prediction plan's); nil balances it here.
func plan(cfg Config, src source, stageOf []int) (*runPlan, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	dp, tp, pp, err := gridPoint(cfg)
	if err != nil {
		return nil, err
	}
	tr, stageOf, err := src.trace(cfg, pp, stageOf)
	if err != nil {
		return nil, err
	}
	timer, err := src.timer(cfg, tr)
	if err != nil {
		return nil, err
	}
	topo := cfg.Topology
	if topo == nil {
		topo = BuildTopology(cfg.Platform)
	}
	var collLog *telemetry.CollectiveLog
	if telemetryOn(cfg.Telemetry, cfg.Metrics) {
		collLog = telemetry.NewCollectiveLog()
	}
	effects := src.effects(cfg.Platform)
	eres, err := extrapolate(cfg.Parallelism, extrapolator.Config{
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
		StageOf:      stageOf,
	}, dp, tp, pp)
	if err != nil {
		return nil, err
	}
	return &runPlan{cfg: cfg, topo: topo, stageOf: stageOf, graph: eres,
		rampBytes: effects.CommRampBytes, collLog: collLog,
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
// overheads, over the prediction's pipeline partition, as real hardware runs
// the one partition the user picked. TrioSim's predictions are validated
// against this.
func GroundTruth(cfg Config) (*Result, error) {
	p, err := plan(cfg, groundTruth, nil)
	if err != nil {
		return nil, err
	}
	return p.run()
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
// comparison (cmd/experiments does). Ground truth takes the prediction
// plan's partition instead of fetching the prediction's trace again.
func ValidatePair(cfg Config) (*Comparison, *Result, *Result, error) {
	pp, err := plan(cfg, prediction, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	pred, err := pp.run()
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := plan(cfg, groundTruth, pp.stageOf)
	if err != nil {
		return nil, nil, nil, err
	}
	actual, err := g.run()
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
	dp, tp, pp, err := gridPoint(cfg)
	if err != nil {
		return nil, err
	}
	tr, stageOf, err := prediction.trace(cfg, pp, nil)
	if err != nil {
		return nil, err
	}
	batch := cfg.GlobalBatch
	if batch == 0 {
		batch = tr.BatchSize
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
		mcfg.StageOf = stageOf
		if pp == 1 { // one stage holds every layer
			mcfg.StageOf = make([]int, tr.NumLayers())
		}
	}
	fp, err := memory.Estimate(mcfg)
	if err != nil {
		return nil, err
	}
	fits, worst := memory.Fits(fp, cfg.Platform.GPU.MemCapacity)
	return &MemoryReport{PerGPU: fp, Fits: fits, WorstUtilization: worst}, nil
}
