package main

import (
	"fmt"
	"time"

	"triosim/internal/core"
	"triosim/internal/extrapolator"
	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/hwsim"
	"triosim/internal/network"
	"triosim/internal/perfmodel"
	"triosim/internal/sim"
	"triosim/internal/task"
	"triosim/internal/timeline"
	"triosim/internal/trace"
	"triosim/internal/tracecache"
)

// The traced run times each layer from outside the simulator: it runs a
// copy of core.Simulate's pipeline assembled from the layers' exported
// calls, with a span for each call. The copy covers the configurations
// the workloads use (zoo models, Li's Model on the platform's own GPU, the
// parallelisms below, optional faults) and refuses anything else, and every
// traced operation must reproduce core.Simulate's result exactly.

// Span names of the traced pipeline, one per layer.
const (
	spanOp       = "op"
	spanCollect  = "hwsim.collect"
	spanFit      = "perfmodel.fit"
	spanTopology = "network.topology"
	spanBuild    = "extrapolator.build"
	spanEngine   = "sim.engine"
	spanDigest   = "sim.digest"
	spanHandlers = "handlers"
	spanSolve    = "network.solve"
	spanUnion    = "timeline.union"
)

// simOutput is what the output checks compare between core.Simulate and
// the traced copy.
type simOutput struct {
	TotalTime   sim.VTime
	Events      uint64
	EventDigest uint64
}

func outputOf(r *core.Result) simOutput {
	return simOutput{r.TotalTime, r.Events, r.EventDigest}
}

// opCounts are the per-operation counts the traced copy records at the
// layer boundaries.
type opCounts struct {
	tasks, tasksDone, queueHighWater int
	events                           uint64
	solves, solvedFlows              int
	cacheHits, cacheLookups          uint64
	engineWall                       time.Duration
}

// taskCounter is a task.Observer counting finished tasks.
type taskCounter struct{ done int }

func (c *taskCounter) TaskDone(*task.Task, sim.VTime, sim.VTime) { c.done++ }

// eventClock times the two parts of every engine dispatch that are not the
// engine's own work: the digest hook and the event handler. Registered as
// two hooks — after (first) and digest (second) — the handler interval runs
// from the end of the digest fold to the first after-event hook.
type eventClock struct {
	digest  *sim.DigestHook
	mark    time.Time
	digestT time.Duration
	handleT time.Duration
}

func (c *eventClock) digestHook() sim.Hook {
	return sim.HookFunc(func(h sim.HookCtx) {
		if h.Pos != sim.HookPosBeforeEvent {
			return
		}
		t := time.Now()
		c.digest.Func(h)
		c.mark = time.Now()
		c.digestT += c.mark.Sub(t)
	})
}

func (c *eventClock) afterHook() sim.Hook {
	return sim.HookFunc(func(h sim.HookCtx) {
		if h.Pos == sim.HookPosAfterEvent {
			c.handleT += time.Since(c.mark)
		}
	})
}

// defaults mirrors core.Config's documented defaults.
func defaults(cfg core.Config) core.Config {
	if cfg.NumGPUs == 0 {
		cfg.NumGPUs = cfg.Platform.NumGPUs
	}
	if cfg.TraceBatch == 0 {
		cfg.TraceBatch = 128
	}
	if cfg.TraceGPU == "" {
		cfg.TraceGPU = cfg.Platform.GPU.Name
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 1
	}
	return cfg
}

// tracedSimulate runs cfg through the pipeline copy, recording one root
// span for operation op and a child span per layer. Layer spans are laid end
// to end — each runs from the end of the previous one — so the harness's
// bookkeeping between two calls is charged to the next layer, and the
// per-event timings folded under the engine span must fit inside it. The
// topology is cfg.Topology when set; otherwise buildTopo builds it inside
// the operation, or core.BuildTopology when buildTopo is nil.
func tracedSimulate(log *spanLog, op int, label string, cfg core.Config,
	buildTopo func() *network.Topology) (simOutput, opCounts, error) {

	var out simOutput
	var n opCounts
	cfg = defaults(cfg)
	switch {
	case cfg.Platform == nil || cfg.Model == "" || cfg.Trace != nil:
		return out, n, fmt.Errorf("traced copy needs a zoo model and a platform")
	case cfg.ComputeModel != "" && cfg.ComputeModel != "li":
		return out, n, fmt.Errorf("traced copy supports Li's Model only")
	case cfg.TraceGPU != cfg.Platform.GPU.Name:
		return out, n, fmt.Errorf("traced copy does not rescale across GPUs")
	case cfg.Telemetry || cfg.SpanTrace || cfg.Metrics != nil:
		return out, n, fmt.Errorf("traced copy runs with observers off")
	}

	mark := log.now()
	root := log.add(span{Name: spanOp, Op: op, Parent: -1, Start: mark,
		Label: label, Lane: 1})
	lap := func(name string) int {
		now := log.now()
		id := log.add(span{Name: name, Op: op, Parent: root, Start: mark,
			End: now, Lane: 1})
		mark = now
		return id
	}
	defer func() { log.spans[root].End = mark }()

	spec, err := gpu.SpecByName(cfg.TraceGPU)
	if err != nil {
		return out, n, err
	}
	var before tracecache.Stats
	if cfg.Cache != nil {
		before = cfg.Cache.Stats()
	}
	key := tracecache.Key{Model: cfg.Model, Batch: cfg.TraceBatch, Spec: *spec,
		NoiseAmp: hwsim.DefaultNoiseAmp}
	collect := func() (*trace.Trace, error) {
		return hwsim.CollectTrace(cfg.Model, cfg.TraceBatch, spec)
	}
	var tr *trace.Trace
	if cfg.Cache == nil {
		tr, err = collect()
	} else {
		tr, err = cfg.Cache.GetTrace(key, collect)
	}
	lap(spanCollect)
	if err != nil {
		return out, n, err
	}

	var timer extrapolator.OpTimer
	if cfg.Cache == nil {
		timer, err = perfmodel.Fit(tr)
	} else {
		timer, err = cfg.Cache.GetTimer(tracecache.TimerKey{Trace: key,
			ComputeModel: "li", Target: cfg.Platform.GPU},
			func() (tracecache.OpTimer, error) { return perfmodel.Fit(tr) })
	}
	lap(spanFit)
	if err != nil {
		return out, n, err
	}

	topo := cfg.Topology
	if topo == nil {
		if buildTopo != nil {
			topo = buildTopo()
		} else {
			topo = core.BuildTopology(cfg.Platform)
		}
		lap(spanTopology)
	}

	eres, err := extrapolate(cfg, tr, topo, timer)
	lap(spanBuild)
	if err != nil {
		return out, n, err
	}
	n.tasks = eres.Graph.Len()

	eng := sim.NewSerialEngine()
	clock := &eventClock{digest: sim.NewDigestHook()}
	eng.RegisterHook(clock.afterHook())
	eng.RegisterHook(clock.digestHook())
	net := network.NewFlowNetwork(eng, topo)
	net.ApproxTol = cfg.NetApproxTol
	net.SolveClock = time.Now
	tl := timeline.New()
	x := task.NewExecutor(eng, net, eres.Graph, tl)
	done := &taskCounter{}
	x.Observe(done)
	if cfg.Faults != nil {
		inj, err := faults.NewInjector(eng, net, cfg.Faults)
		if err != nil {
			return out, n, err
		}
		x.Stretch = inj.Factor
		inj.Arm()
	}
	makespan, err := x.Run()
	e := lap(spanEngine)
	if err != nil {
		return out, n, err
	}
	engSpan := log.spans[e]
	at := engSpan.Start
	log.add(span{Name: spanDigest, Op: op, Parent: e, Start: at,
		End: at + clock.digestT, Folded: true, Lane: 1})
	at += clock.digestT
	h := log.add(span{Name: spanHandlers, Op: op, Parent: e, Start: at,
		End: at + clock.handleT, Folded: true, Lane: 1})
	log.add(span{Name: spanSolve, Op: op, Parent: h, Start: at,
		End: at + net.SolveWall, Folded: true, Lane: 1})

	for _, phase := range []string{"compute", "comm", "hostload"} {
		tl.UnionTime(timeline.ByPhase(phase))
	}
	lap(spanUnion)

	out = simOutput{makespan, eng.EventCount(), clock.digest.Sum64()}
	n.events = eng.EventCount()
	n.tasksDone = done.done
	n.queueHighWater = eng.QueueHighWater()
	n.solves = net.Solves
	n.solvedFlows = net.SolvedFlows
	n.engineWall = engSpan.dur()
	if cfg.Cache != nil {
		after := cfg.Cache.Stats()
		n.cacheHits = after.TraceHits + after.TimerHits -
			before.TraceHits - before.TimerHits
		n.cacheLookups = n.cacheHits + after.TraceMisses + after.TimerMisses -
			before.TraceMisses - before.TimerMisses
	}
	return out, n, nil
}

// extrapolate is the parallelism switch of core.Simulate for the
// strategies the workloads use.
func extrapolate(cfg core.Config, tr *trace.Trace, topo *network.Topology,
	timer extrapolator.OpTimer) (*extrapolator.Result, error) {

	ecfg := extrapolator.Config{
		Trace:        tr,
		Topo:         topo,
		NumGPUs:      cfg.NumGPUs,
		Timer:        timer,
		Effects:      hwsim.NoEffects,
		GlobalBatch:  cfg.GlobalBatch,
		MicroBatches: cfg.MicroBatches,
		BucketBytes:  cfg.BucketBytes,
		Iterations:   cfg.Iterations,
		Collective:   cfg.Collective,
		FuseCompute:  cfg.FuseCompute,
		ForwardOnly:  cfg.InferenceOnly,
	}
	switch cfg.Parallelism {
	case core.DP:
		return extrapolator.DataParallel(ecfg, false)
	case core.DDP:
		return extrapolator.DataParallel(ecfg, true)
	case core.TP:
		return extrapolator.TensorParallel(ecfg)
	case core.PP:
		return extrapolator.PipelineParallel(ecfg)
	case core.DPTPPP:
		tp, pp := max(cfg.TPRanks, 1), max(cfg.PPStages, 1)
		if cfg.NumGPUs%(tp*pp) != 0 {
			return nil, fmt.Errorf("%d GPUs not divisible by tp·pp = %d×%d",
				cfg.NumGPUs, tp, pp)
		}
		return extrapolator.Hybrid3D(ecfg, cfg.NumGPUs/(tp*pp), tp, pp)
	}
	return nil, fmt.Errorf("traced copy does not support parallelism %q",
		cfg.Parallelism)
}

// layerAcc accumulates a traced run's counts over its traced operations.
type layerAcc struct {
	ops                     int
	tasks, tasksDone, hw    float64
	events                  float64
	solves, solvedFlows     float64
	cacheHits, cacheLookups uint64
	engineWall              time.Duration
	traced, untraced        []float64 // op wall ms, for the trace overhead
}

func (a *layerAcc) add(n opCounts) {
	a.ops++
	a.tasks += float64(n.tasks)
	a.tasksDone += float64(n.tasksDone)
	a.hw += float64(n.queueHighWater)
	a.events += float64(n.events)
	a.solves += float64(n.solves)
	a.solvedFlows += float64(n.solvedFlows)
	a.cacheHits += n.cacheHits
	a.cacheLookups += n.cacheLookups
	a.engineWall += n.engineWall
}
