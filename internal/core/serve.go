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
	// Clock supplies wall-clock readings for Result.WallClock; nil
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
	// would need request re-routing, which serving does not simulate.
	Faults *faults.Schedule
}

// ServeResult is a serving simulation's output: the run harness's Result
// and the request-level Metrics. Result.TotalTime runs from virtual time
// zero to the last delivered response. Serving runs leave Result's
// training fields (PerIteration, the busy times, Tasks) zero and carry no
// critical-path analysis: request lifetimes overlap by design, so a single
// makespan-setting chain through them is not meaningful. Report, when
// telemetry is on, has its Serving section populated.
type ServeResult struct {
	Result
	// Metrics is the request-level outcome: latency tails, throughput, and
	// batching efficiency.
	Metrics *serving.Metrics
}

// Serve runs one request-level serving simulation.
func Serve(cfg ServeConfig) (*ServeResult, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("core: no platform")
	}
	if f := cfg.Faults; f != nil {
		if f.Checkpoint != nil {
			return nil, fmt.Errorf(
				"core: serving has no checkpoint/restart model")
		}
		if n := len(f.Failures()); n > 0 {
			return nil, fmt.Errorf(
				"core: serving does not support gpufail events (%d in schedule): "+
					"a failed replica would need request re-routing", n)
		}
	}
	topo := cfg.Topology
	if topo == nil {
		topo = BuildTopology(cfg.Platform)
	}

	r := newRun(runConfig{topo: topo, rampBytes: cfg.Platform.CommRampBytes,
		clock: cfg.Clock, spanTrace: cfg.SpanTrace,
		telemetry: telemetryOn(cfg.Telemetry, cfg.Metrics), metrics: cfg.Metrics,
		hooks: cfg.Hooks, ctx: cfg.Context, faults: cfg.Faults})
	spec := cfg.Platform.GPU
	cl, err := serving.New(r.eng, r.fabric, topo, &spec, cfg.Serving)
	if err != nil {
		return nil, err
	}
	if err := r.attach(nil, cl.Observe, &cl.GPUTime, &cl.Stretch); err != nil {
		return nil, err
	}
	cl.Spans = r.rec
	cl.Start()
	if err := r.eng.Run(); err != nil {
		return nil, r.failed(err)
	}
	m, err := cl.Metrics()
	if err != nil {
		return nil, err
	}

	// The run ends at the last delivered response, not at the engine's last
	// event: a fault window that outlasts the workload still dispatches its
	// end. Serving has no checkpoint policy or failures, so its resilience
	// accounting is the degenerate one: useful = extended = total.
	var total sim.VTime
	for _, pr := range m.PerRequest {
		if done := sim.VTime(pr.DoneSec); done.After(total) {
			total = done
		}
	}
	res, err := r.finish(telemetry.RunInfo{
		Model:           cfg.Serving.Model,
		Platform:        cfg.Platform.Name,
		Parallelism:     "serving-" + m.Scheduler,
		NumGPUs:         m.Replicas,
		Iterations:      1,
		PerIterationSec: total.Seconds(),
		Parallel: telemetry.ParallelStat{
			Strategy: "serving-" + m.Scheduler,
			Replicas: m.Replicas,
		},
	}, total, 0)
	if err != nil {
		return nil, err
	}
	if res.Report != nil {
		res.Report.Serving = servingStat(m)
	}
	return &ServeResult{Result: *res, Metrics: m}, nil
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
