package experiments

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"triosim/internal/core"
	"triosim/internal/sweep"
	"triosim/internal/tracecache"
)

// Options controls how a figure generator executes its scenario grid. Every
// figure is a set of independent cells (one workload under one
// configuration); the cells fan out on the sweep worker pool and their rows
// are merged back in grid order, so the figure's output is byte-identical
// at any worker count (the golden tests pin this).
type Options struct {
	// Workers is the sweep pool size: 0 = GOMAXPROCS, 1 = serial.
	Workers int
	// Timeout bounds each cell's simulations (0 = unbounded).
	Timeout time.Duration
	// Context cancels the remaining cells of a figure.
	Context context.Context
	// NoTraceCache disables the per-figure trace cache. By default every
	// figure shares one tracecache.Store across its cells, so the cells of,
	// say, a two-platform sweep collect each (model, batch, GPU) trace once.
	// Figure output is byte-identical either way (the golden tests compare
	// cache-on vs cache-off directly); the switch exists for A/B measurement.
	NoTraceCache bool
	// TraceDir, when non-empty, enables span tracing on every cell threaded
	// through cached() and writes each simulation's Chrome trace-event JSON
	// into the directory. Filenames are config-addressed (model, platform,
	// parallelism, GPU count, batch, iterations), so two cells running the
	// same configuration overwrite each other with identical bytes —
	// parallel-safe without coordination. The directory must exist.
	TraceDir string
	// cache is the figure run's shared store, installed by withCache at the
	// top of each figure generator.
	cache *tracecache.Store
}

// Serial runs every cell sequentially on the calling goroutine — the
// configuration benchmarks use for a stable baseline, and the reference the
// parallel path is compared against.
var Serial = Options{Workers: 1}

func (o Options) sweep() sweep.Options {
	return sweep.Options{Workers: o.Workers, Timeout: o.Timeout,
		Context: o.Context, NoTraceCache: o.NoTraceCache}
}

// withCache installs the figure run's shared trace cache (a no-op when
// disabled or already installed). Figure generators call it once, before
// building cells, so every cell closure captures the same store.
func (o Options) withCache() Options {
	if o.cache == nil && !o.NoTraceCache {
		o.cache = tracecache.New()
	}
	return o
}

// cached threads the figure's shared cache (and the trace-export switch)
// into one cell's Config.
func (o Options) cached(cfg core.Config) core.Config {
	if cfg.Cache == nil {
		cfg.Cache = o.cache
	}
	if o.TraceDir != "" {
		cfg.SpanTrace = true
	}
	return cfg
}

// cellName renders a config-addressed name for one cell's trace file
// (sweep.WriteTrace sanitizes it into a filename stem) from the values core
// resolves: the platform's GPU count when NumGPUs is 0, the global batch as
// core defaults it (GlobalBatch, else TraceBatch, else 128), and the trace
// batch, so cells that differ only in TraceBatch get their own file.
func cellName(cfg core.Config) string {
	platform, gpus := "none", cfg.NumGPUs
	if cfg.Platform != nil {
		platform = cfg.Platform.Name
		gpus = cmp.Or(gpus, cfg.Platform.NumGPUs)
	}
	par := cmp.Or(string(cfg.Parallelism), string(core.Single))
	trace := cmp.Or(cfg.TraceBatch, 128)
	return fmt.Sprintf("%s_%s_%s_g%d_b%d_t%d_i%d", cfg.Model, platform, par,
		gpus, cmp.Or(cfg.GlobalBatch, trace), trace, cmp.Or(cfg.Iterations, 1))
}

// exportSpans writes one simulation's Chrome trace into TraceDir (no-op when
// trace export is off or the run recorded no spans).
func (o Options) exportSpans(cfg core.Config, res *core.Result) error {
	if err := sweep.WriteTrace(o.TraceDir, cellName(cfg), res); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// vals is one cell's named numeric outputs (a Row's Values).
type vals = map[string]float64

// runCells executes the cells on the sweep pool, returning outputs in cell
// order (first error aborts the figure).
func runCells[T any](o Options, cells []sweep.Job[T]) ([]T, error) {
	return sweep.Values(sweep.Run(o.sweep(), cells))
}

// validateCell runs prediction vs ground truth under ctx — with the figure's
// shared trace cache — and returns the standard validation row values.
func (o Options) validateCell(ctx context.Context, cfg core.Config) (vals, error) {
	cfg.Context = ctx
	cfg = o.cached(cfg)
	cmp, pred, _, err := core.ValidatePair(cfg)
	if err != nil {
		return nil, err
	}
	if err := o.exportSpans(cfg, pred); err != nil {
		return nil, err
	}
	return vals{
		"predicted_s": float64(cmp.Predicted),
		"hardware_s":  float64(cmp.Actual),
		"normalized":  cmp.Normalized,
		"error_pct":   cmp.Error * 100,
	}, nil
}
