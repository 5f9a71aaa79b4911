package sweep

import (
	"context"
	"fmt"
	"path/filepath"

	"triosim/internal/core"
	"triosim/internal/tracecache"
)

// SanitizeName maps a scenario name onto a safe filename stem: every byte
// outside [a-zA-Z0-9._-] becomes '-'.
func SanitizeName(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			out[i] = '-'
		}
	}
	return string(out)
}

// WriteTrace writes a run's Chrome trace into dir, named
// SanitizeName(name)+".trace.json". It does nothing when dir is empty or
// the run recorded no spans.
func WriteTrace(dir, name string, res *core.Result) error {
	if dir == "" || res == nil || res.Spans == nil {
		return nil
	}
	path := filepath.Join(dir, SanitizeName(name)+".trace.json")
	if err := res.Spans.WriteChromeTraceFile(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// Scenario is one named simulation configuration in a sweep.
type Scenario struct {
	// Name labels the scenario in results and reports.
	Name string
	// Build returns the scenario's Config. It runs on the worker goroutine,
	// so anything with unsynchronized internal state — notably
	// *network.Topology and its route cache — must be constructed here, not
	// captured from outside.
	Build func() core.Config
}

// SimResult is one scenario's simulation outcome.
type SimResult struct {
	Name string
	Res  *core.Result
}

// Simulate runs the scenarios through core.Simulate on the pool. Results are
// in scenario order; a scenario's failure is confined to its own Result. The
// sweep context (and per-job timeout) is threaded into each Config.Context,
// so cancellation terminates in-flight engines. When telemetry is enabled on
// a scenario's Config, its Result carries that scenario's own RunReport —
// each run builds a private registry, so reports never mix across workers.
//
// Unless Options.NoTraceCache is set, the sweep shares one trace cache:
// scenarios over the same (model, trace batch, GPU) collect the trace and
// fit the performance model once, and every other scenario reuses them
// read-only. A Config that already carries a Cache (or a pre-built Trace)
// keeps it.
func Simulate(opts Options, scenarios []Scenario) []Result[SimResult] {
	var cache *tracecache.Store
	if !opts.NoTraceCache {
		cache = tracecache.New()
	}
	jobs := make([]Job[SimResult], len(scenarios))
	for i := range scenarios {
		sc := scenarios[i]
		jobs[i] = func(ctx context.Context) (SimResult, error) {
			cfg := sc.Build()
			if cfg.Context == nil {
				cfg.Context = ctx
			}
			if cfg.Cache == nil {
				cfg.Cache = cache
			}
			if opts.TraceDir != "" {
				cfg.SpanTrace = true
			}
			res, err := core.Simulate(cfg)
			if err != nil {
				// Name the scenario: a per-scenario timeout surfaces from
				// core as a bare context error, useless in a 50-scenario
				// sweep without saying *which* scenario it killed.
				return SimResult{Name: sc.Name},
					fmt.Errorf("sweep: scenario %q: %w", sc.Name, err)
			}
			if err := WriteTrace(opts.TraceDir, sc.Name, res); err != nil {
				return SimResult{Name: sc.Name},
					fmt.Errorf("sweep: scenario %q: %w", sc.Name, err)
			}
			return SimResult{Name: sc.Name, Res: res}, nil
		}
	}
	return Run(opts, jobs)
}
