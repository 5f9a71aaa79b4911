package main

import (
	"fmt"
	"math"
	"math/rand"

	"triosim/internal/core"
	"triosim/internal/gpu"
	"triosim/internal/models"
	"triosim/internal/tracecache"
)

// paper-sweep: the paper's validation grid — every zoo model on P1, P2 and
// P3 under dp, ddp, tp and pp — run serially through core.Simulate, each
// pass with a fresh trace cache as cmd/experiments does. Many small runs:
// trace collection, model fitting, graph build and the digest dominate, and
// the flow solver does little. It is the one workload with a reference
// result (hwsim ground truth).

// scenario is one cell of the validation grid.
type scenario struct {
	name     string
	model    string
	platform gpu.Platform
	par      core.Parallelism
}

func (s scenario) config(cache *tracecache.Store) core.Config {
	plat := s.platform
	cfg := core.Config{Model: s.model, Platform: &plat, Parallelism: s.par,
		TraceBatch: traceBatchFor(s.model), Cache: cache}
	if s.par == core.PP {
		cfg.MicroBatches = 2
	}
	return cfg
}

// traceBatchFor follows the paper: 128, except Llama at 16.
func traceBatchFor(model string) int {
	if model == "llama32-1b" {
		return 16
	}
	return 128
}

// sweepScenarios is the grid in the order the seed shuffles.
func sweepScenarios(smoke bool, seed int64) []scenario {
	zoo := append(models.CNNs(), models.Transformers()...)
	if smoke {
		zoo = []string{"resnet18", "gpt2"}
	}
	var out []scenario
	for _, m := range zoo {
		for _, plat := range []gpu.Platform{gpu.P1, gpu.P2, gpu.P3} {
			for _, par := range []core.Parallelism{core.DP, core.DDP, core.TP,
				core.PP} {
				out = append(out, scenario{
					name:  fmt.Sprintf("%s/%s/%s", m, plat.Name, par),
					model: m, platform: plat, par: par})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
	})
	return out
}

// sweepInstance is a set-up paper-sweep: the seeded order and the warm-up
// pass's result for every scenario.
type sweepInstance struct {
	order []scenario
	ref   map[string]simOutput
}

func setupSweep(o options) (*sweepInstance, error) {
	in := &sweepInstance{order: sweepScenarios(o.smoke, o.seed),
		ref: map[string]simOutput{}}
	cache := tracecache.New()
	for _, sc := range in.order {
		res, err := core.Simulate(sc.config(cache))
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", sc.name, err)
		}
		in.ref[sc.name] = outputOf(res)
	}
	return in, nil
}

// pass runs every scenario once through core.Simulate with a fresh cache,
// appending per-scenario milliseconds and checking each result against the
// warm-up's.
func (in *sweepInstance) pass(out *outcome, samples []float64) []float64 {
	cache := tracecache.New()
	for _, sc := range in.order {
		samples = out.timeOp(samples, sc.name, in.ref[sc.name],
			func() (*core.Result, error) { return core.Simulate(sc.config(cache)) })
	}
	return samples
}

func runSweep(o options) (*outcome, error) {
	in, setupS, err := setupMedian(3, func() (*sweepInstance, error) {
		return setupSweep(o)
	}, nil)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.info["scenarios"] = len(in.order)
	var lines []string
	for _, sc := range in.order {
		r := in.ref[sc.name]
		lines = append(lines, fmt.Sprintf("%s %v %d %#x", sc.name,
			float64(r.TotalTime), r.Events, r.EventDigest))
	}
	out.info["output_digest"] = outputDigest(lines)

	if o.trace {
		// Untraced passes (the trace overhead's baseline) alternate with
		// passes through the traced pipeline copy.
		out.spans = newSpanLog()
		acc := &layerAcc{}
		out.alternate(o.seconds, acc, func() {
			acc.untraced = in.pass(out, acc.untraced)
		}, func() {
			cache := tracecache.New()
			for _, sc := range in.order {
				out.traceOp(acc, sc.name, in.ref[sc.name], sc.config(cache), nil)
			}
		})
		return out, nil
	}

	var samples []float64
	elapsed, mem := timed(o.seconds, func() { samples = in.pass(out, samples) })
	out.setEndToEnd(setupS, float64(len(samples))/elapsed.Seconds(), samples,
		mem, out.attempted)

	errPct, err := in.predictionError()
	if err != nil {
		return nil, err
	}
	out.info["pred_err_pct"] = errPct
	return out, nil
}

// predictionError is the mean |Simulate − GroundTruth| / GroundTruth over
// the grid, in percent. It runs after the timed phase and is not timed.
func (in *sweepInstance) predictionError() (float64, error) {
	cache := tracecache.New()
	total := 0.0
	for _, sc := range in.order {
		gt, err := core.GroundTruth(sc.config(cache))
		if err != nil {
			return 0, fmt.Errorf("ground truth %s: %w", sc.name, err)
		}
		pred := float64(in.ref[sc.name].TotalTime)
		total += math.Abs(pred-float64(gt.TotalTime)) / float64(gt.TotalTime)
	}
	return 100 * total / float64(len(in.order)), nil
}
