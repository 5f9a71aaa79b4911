package experiments

import (
	"context"
	"fmt"

	"triosim/internal/core"
	"triosim/internal/gpu"
	"triosim/internal/serving"
	"triosim/internal/sweep"
)

// Serving — request-level inference-serving study (not a paper figure; the
// serving extension, see docs/SERVING.md). Each transformer serves a seeded
// Poisson workload on P2 under each scheduler; the figure reports
// throughput, latency tails, batching efficiency, and GPU utilization.
func Serving(quick bool) (*Figure, error) {
	return ServingOpts(quick, Serial)
}

func servingModels(quick bool) []string {
	if quick {
		return []string{"gpt2"}
	}
	return []string{"gpt2", "llama32-1b"}
}

// ServingOpts is Serving with sweep options.
func ServingOpts(quick bool, opts Options) (*Figure, error) {
	f := &Figure{
		ID:    "serving",
		Title: "Inference serving: scheduler comparison under Poisson load",
		Columns: []string{"throughput_rps", "p50_ms", "p99_ms", "p999_ms",
			"ttft_p99_ms", "mean_batch", "gpu_util"},
	}
	requests := 192
	if quick {
		requests = 48
	}
	type cellID struct {
		model string
		sched string
	}
	var grid []cellID
	for _, m := range servingModels(quick) {
		for _, s := range serving.Policies() {
			grid = append(grid, cellID{m, s})
		}
	}
	cells := make([]sweep.Job[vals], len(grid))
	for i, c := range grid {
		c := c
		cells[i] = func(ctx context.Context) (vals, error) {
			p := gpu.P2
			cfg := core.ServeConfig{
				Platform:  &p,
				Telemetry: true,
				Context:   ctx,
				Serving: serving.Config{
					Model:     c.model,
					Scheduler: c.sched,
					MaxBatch:  8,
					Arrivals: serving.ArrivalConfig{
						Seed: 42, Rate: 8000, Requests: requests,
						PromptMin: 16, PromptMax: 128,
						OutputMin: 8, OutputMax: 64,
						PriorityLevels: 4,
					},
				},
			}
			if opts.TraceDir != "" {
				cfg.SpanTrace = true
			}
			res, err := core.Serve(cfg)
			if err != nil {
				return nil, fmt.Errorf("serving/%s/%s: %w", c.model,
					c.sched, err)
			}
			name := fmt.Sprintf("serving_%s_%s", c.model, c.sched)
			err = sweep.WriteTrace(opts.TraceDir, name, &res.Result)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			m := res.Metrics
			var util float64
			for _, rs := range m.PerReplica {
				util += rs.Utilization
			}
			util /= float64(len(m.PerReplica))
			return vals{
				"throughput_rps": m.ThroughputRPS,
				"p50_ms":         m.Latency.P50Sec * 1e3,
				"p99_ms":         m.Latency.P99Sec * 1e3,
				"p999_ms":        m.Latency.P999Sec * 1e3,
				"ttft_p99_ms":    m.TTFT.P99Sec * 1e3,
				"mean_batch":     m.MeanBatch,
				"gpu_util":       util,
			}, nil
		}
	}
	out, err := runCells(opts, cells)
	if err != nil {
		return nil, err
	}
	for i, c := range grid {
		f.Add(c.model, c.sched, out[i])
	}
	f.Note("schedulers: %v; seeded Poisson arrivals, continuous batching "+
		"with full-KV admission reservations", serving.Policies())
	return f, nil
}
