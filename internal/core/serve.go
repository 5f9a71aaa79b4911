package core

import (
	"context"
	"fmt"
	"time"

	"triosim/internal/faults"
	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/serving"
	"triosim/internal/sim"
	"triosim/internal/spantrace"
	"triosim/internal/telemetry"
)

// ServeConfig describes one request-level inference-serving simulation: a
// serving workload (internal/serving) executed on a platform's GPUs and
// interconnect with the same observability and determinism plumbing as a
// training run.
type ServeConfig struct {
	// Serving is the workload: model, scheduler, batching, and arrivals.
	Serving serving.Config
	// Platform is the simulated multi-GPU system.
	Platform *gpu.Platform
	// Topology optionally overrides the platform's default topology.
	Topology *network.Topology
	// Clock supplies wall-clock readings for ServeResult.WallClock; nil
	// leaves it zero (see Config.Clock).
	Clock func() time.Time
	// Telemetry / Metrics enable the RunReport exactly as in Config.
	Telemetry bool
	Metrics   *telemetry.Registry
	// SpanTrace enables the span recorder: per-step spans on GPU tracks and
	// one lifetime span per request on "requests.gpuN" tracks.
	SpanTrace bool
	// Hooks are extra engine hooks; they must not schedule events.
	Hooks []sim.Hook
	// Context optionally bounds the run (see Config.Context).
	Context context.Context
	// Faults optionally injects link-degrade/down windows and GPU slowdown
	// stretch. GPUFail events and checkpoint policies are rejected: the
	// serving layer has no checkpoint/restart model — a failed replica
	// would need request re-routing, which this PR does not simulate.
	Faults *faults.Schedule
}

// ServeResult is a serving simulation's output.
type ServeResult struct {
	// Metrics is the request-level outcome: latency tails, throughput, and
	// batching efficiency.
	Metrics *serving.Metrics
	// TotalTime is the full simulated duration (virtual time zero to the
	// last delivered response).
	TotalTime sim.VTime
	// Events / EventDigest mirror Result: the digest pins the dispatched
	// schedule for triosimvet -replay.
	Events      uint64
	EventDigest uint64
	// WallClock is the host time the simulation took (zero without Clock).
	WallClock time.Duration
	// Report is the RunReport with its Serving section populated (nil
	// unless Telemetry/Metrics).
	Report *telemetry.RunReport
	// Spans is the span log (nil unless SpanTrace). Serving runs carry no
	// critical-path analysis: request lifetimes overlap by design, so a
	// single makespan-setting chain through them is not meaningful.
	Spans *spantrace.Log
}

// Serve runs one request-level serving simulation.
func Serve(cfg ServeConfig) (*ServeResult, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("core: no platform")
	}
	topo := cfg.Topology
	if topo == nil {
		topo = BuildTopology(cfg.Platform)
	}

	var start time.Time
	if cfg.Clock != nil {
		start = cfg.Clock()
	}
	eng := sim.NewSerialEngine()
	digest := sim.NewDigestHook()
	eng.RegisterHook(digest)
	net := network.NewFlowNetwork(eng, topo)
	net.RampBytes = cfg.Platform.CommRampBytes
	net.SolveClock = cfg.Clock

	spec := cfg.Platform.GPU
	cl, err := serving.New(eng, net, topo, &spec, cfg.Serving)
	if err != nil {
		return nil, err
	}

	rec, coll, err := observeConfig{
		spanTrace: cfg.SpanTrace,
		telemetry: cfg.Telemetry || cfg.Metrics != nil,
		metrics:   cfg.Metrics,
		hooks:     cfg.Hooks,
		ctx:       cfg.Context,
	}.attach(eng, net, topo, nil, nil, cl.Observe)
	if err != nil {
		return nil, err
	}
	cl.Spans = rec

	var inj *faults.Injector
	if cfg.Faults != nil {
		if cfg.Faults.Checkpoint != nil {
			return nil, fmt.Errorf(
				"core: serving has no checkpoint/restart model")
		}
		inj, err = faults.NewInjector(eng, net, cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if n := len(inj.Failures()); n > 0 {
			return nil, fmt.Errorf(
				"core: serving does not support gpufail events (%d in schedule): "+
					"a failed replica would need request re-routing", n)
		}
		cl.Stretch = inj.Factor
		inj.Arm()
		if rec != nil {
			for _, w := range inj.Windows() {
				rec.AddFault(w.Label(), w.Start, w.End)
			}
		}
	}

	cl.Start()
	if err := eng.Run(); err != nil {
		if cfg.Context != nil && cfg.Context.Err() != nil {
			return nil, fmt.Errorf("core: simulation canceled: %w",
				cfg.Context.Err())
		}
		return nil, err
	}
	m, err := cl.Metrics()
	if err != nil {
		return nil, err
	}

	out := &ServeResult{
		Metrics:     m,
		TotalTime:   eng.CurrentTime(),
		Events:      eng.EventCount(),
		EventDigest: digest.Sum64(),
	}
	if cfg.Clock != nil {
		out.WallClock = cfg.Clock().Sub(start)
	}
	if rec != nil {
		rec.Sample(spantrace.CounterQueueHighWatr, eng.CurrentTime(),
			float64(eng.QueueHighWater()))
		out.Spans = rec.Finalize()
	}
	if coll != nil {
		out.Report = coll.Finalize(telemetry.RunInfo{
			Model:           cfg.Serving.Model,
			Platform:        cfg.Platform.Name,
			Parallelism:     "serving-" + m.Scheduler,
			NumGPUs:         m.Replicas,
			Iterations:      1,
			TotalSec:        out.TotalTime.Seconds(),
			PerIterationSec: out.TotalTime.Seconds(),
			Events:          out.Events,
			QueueHighWater:  eng.QueueHighWater(),
			NetTotalBytes:   net.TotalBytes,
			NetTransfers:    net.TotalTransfers,
			NetSolveSeconds: net.SolveWall.Seconds(),
			Parallel: telemetry.ParallelStat{
				Strategy: "serving-" + m.Scheduler,
				Replicas: m.Replicas,
			},
		})
		out.Report.Serving = servingStat(m)
		out.Report.Engine.EventDigest = fmt.Sprintf("%#x", out.EventDigest)
		if cfg.Clock != nil && out.WallClock > 0 {
			out.Report.Engine.WallSeconds = out.WallClock.Seconds()
			out.Report.Engine.EventsPerSecond =
				float64(out.Events) / out.Report.Engine.WallSeconds
		}
		if inj != nil {
			out.Report.Faults = servingFaultReport(inj, out.TotalTime)
		}
	}
	return out, nil
}

// servingStat converts serving metrics into the RunReport section.
func servingStat(m *serving.Metrics) *telemetry.ServingStat {
	return &telemetry.ServingStat{
		Scheduler:          m.Scheduler,
		Replicas:           m.Replicas,
		MaxBatch:           m.MaxBatch,
		Requests:           m.Requests,
		Completed:          m.Completed,
		OfferedRPS:         m.OfferedRPS,
		MakespanSec:        m.MakespanSec,
		ThroughputRPS:      m.ThroughputRPS,
		TokensPerSec:       m.TokensPerSec,
		Latency:            quantiles(m.Latency),
		TTFT:               quantiles(m.TTFT),
		Steps:              m.Steps,
		MeanBatch:          m.MeanBatch,
		BatchingEfficiency: m.BatchingEfficiency,
		GeneratedTokens:    m.GeneratedTokens,
		KVPeakBytes:        m.KVPeakBytes,
	}
}

func quantiles(ls serving.LatencyStats) telemetry.LatencyQuantiles {
	return telemetry.LatencyQuantiles{
		MeanSec: ls.MeanSec,
		P50Sec:  ls.P50Sec,
		P90Sec:  ls.P90Sec,
		P99Sec:  ls.P99Sec,
		P999Sec: ls.P999Sec,
		MaxSec:  ls.MaxSec,
	}
}

// servingFaultReport builds the fault section for a serving run: window
// bookkeeping only. Serving has no resilience overlay, so the extended
// timeline IS the useful timeline and goodput is 1 by construction.
func servingFaultReport(inj *faults.Injector,
	total sim.VTime) *telemetry.FaultReport {
	ws := inj.Windows()
	fr := &telemetry.FaultReport{
		DegradedSec: faults.DegradedSeconds(ws, total),
		UsefulSec:   total.Seconds(),
		ExtendedSec: total.Seconds(),
		Goodput:     1,
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
	return fr
}
