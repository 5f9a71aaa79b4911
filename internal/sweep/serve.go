package sweep

import (
	"context"
	"fmt"

	"triosim/internal/core"
)

// ServeScenario is one named serving configuration in a sweep.
type ServeScenario struct {
	Name string
	// Build returns the scenario's ServeConfig; like Scenario.Build it runs
	// on the worker goroutine, so topologies must be constructed inside it.
	Build func() core.ServeConfig
}

// ServeResult is one serving scenario's outcome.
type ServeResult struct {
	Name string
	Res  *core.ServeResult
}

// Serve runs serving scenarios through core.Serve on the pool, mirroring
// Simulate: results in scenario order, failures confined to their own
// Result, the sweep context threaded into each config, and TraceDir writing
// one Chrome trace per scenario. Serving runs collect no traces, so there
// is no shared cache to install.
func Serve(opts Options, scenarios []ServeScenario) []Result[ServeResult] {
	jobs := make([]Job[ServeResult], len(scenarios))
	for i := range scenarios {
		sc := scenarios[i]
		jobs[i] = func(ctx context.Context) (ServeResult, error) {
			cfg := sc.Build()
			if cfg.Context == nil {
				cfg.Context = ctx
			}
			if opts.TraceDir != "" {
				cfg.SpanTrace = true
			}
			res, err := core.Serve(cfg)
			if err != nil {
				return ServeResult{Name: sc.Name},
					fmt.Errorf("sweep: scenario %q: %w", sc.Name, err)
			}
			if err := WriteTrace(opts.TraceDir, sc.Name,
				&res.Result); err != nil {
				return ServeResult{Name: sc.Name},
					fmt.Errorf("sweep: scenario %q: %w", sc.Name, err)
			}
			return ServeResult{Name: sc.Name, Res: res}, nil
		}
	}
	return Run(opts, jobs)
}
