package main

import (
	"fmt"
	"io"

	"triosim"
)

// runServing executes one request-level serving simulation and prints the
// summary block (the -serve-sim path of the CLI).
func runServing(o *options, w io.Writer) error {
	if o.workload != "" {
		reqs, err := triosim.LoadServingWorkload(o.workload)
		if err != nil {
			return err
		}
		o.serve.Serving.Workload = reqs
	}
	cfg, err := o.serve.ToCore()
	if err != nil {
		return err
	}
	cfg.Clock, cfg.Telemetry, cfg.SpanTrace = o.observe()
	if o.faultsPath != "" {
		if cfg.Faults, err = triosim.LoadFaultSchedule(o.faultsPath); err != nil {
			return err
		}
	}

	res, err := triosim.Serve(cfg)
	if err != nil {
		return err
	}
	m := res.Metrics
	fmt.Fprintf(w, "serving:         %s on %s (%d replicas, %s scheduler, batch ≤ %d)\n",
		cfg.Serving.Model, cfg.Platform.Name, m.Replicas, m.Scheduler, m.MaxBatch)
	fmt.Fprintf(w, "requests:        %d completed of %d (offered %.1f req/s)\n",
		m.Completed, m.Requests, m.OfferedRPS)
	fmt.Fprintf(w, "throughput:      %.1f req/s, %.0f tokens/s over %.6gs\n",
		m.ThroughputRPS, m.TokensPerSec, m.MakespanSec)
	fmt.Fprintf(w, "latency:         p50 %.3fms  p99 %.3fms  p999 %.3fms  max %.3fms\n",
		m.Latency.P50Sec*1e3, m.Latency.P99Sec*1e3,
		m.Latency.P999Sec*1e3, m.Latency.MaxSec*1e3)
	fmt.Fprintf(w, "ttft:            p50 %.3fms  p99 %.3fms\n",
		m.TTFT.P50Sec*1e3, m.TTFT.P99Sec*1e3)
	fmt.Fprintf(w, "batching:        %.2f mean batch (%.0f%% of cap), %d steps\n",
		m.MeanBatch, m.BatchingEfficiency*100, m.Steps)
	fmt.Fprintf(w, "kv cache:        %.2f GB peak\n", m.KVPeakBytes/(1<<30))
	fmt.Fprintf(w, "simulator:       %d events, %v wall clock, digest %#x\n",
		res.Events, res.WallClock, res.EventDigest)
	fmt.Fprintf(w, "outcome digest:  %#x\n", res.OutcomeDigest)
	return o.writeOutputs(w, res.Report, res.Spans)
}
