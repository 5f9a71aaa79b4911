package core

import (
	"fmt"
	"slices"
	"testing"

	"triosim/internal/gpu"
	"triosim/internal/models"
	"triosim/internal/tracecache"
)

// TestExactTimerOracle is the differential oracle between the two paths:
// the prediction's plan priced by the exact hwsim timer with no effects
// must run exactly as the ground truth's plan with no effects, though the
// ground truth extrapolates a native trace at the global batch. Whatever
// separates the paths besides the timer and the effects — the trace batch,
// the batch rescaling, the pipeline partition — would show here. Every zoo
// model, the three validation platforms, all nine strategies (dp+tp+pp with
// two TP ranks and, on P2 and P3, two pipeline stages) and one and two
// iterations: 972 runs, each compared on its makespan bits, event count,
// event digest and RunReport bytes.
func TestExactTimerOracle(t *testing.T) {
	exact := source{timer: exactTimer, effects: noEffects}
	native := source{native: true, timer: exactTimer, effects: noEffects}
	cache := tracecache.New()
	for _, model := range models.List() {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			for _, plat := range []gpu.Platform{gpu.P1, gpu.P2, gpu.P3} {
				for _, par := range []Parallelism{Single, DP, DDP, TP, PP,
					DPTP, DPPP, ZeRO1, DPTPPP} {
					for _, iters := range []int{1, 2} {
						pl := plat
						cfg := Config{Model: model, Platform: &pl,
							Parallelism: par, TraceBatch: 128, GlobalBatch: 256,
							MicroBatches: 4, Iterations: iters, Telemetry: true,
							Cache: cache}
						if par == DPTPPP {
							cfg.TPRanks, cfg.PPStages = 2, min(2, pl.NumGPUs/2)
						}
						key := fmt.Sprintf("%s/%s/%s/it%d", model, par,
							plat.Name, iters)
						want := oracleRow(t, key, cfg, native)
						if got := oracleRow(t, key, cfg, exact); got != want {
							t.Errorf("%s: exact-timer prediction\n %s\nground truth without effects\n %s",
								key, got, want)
						}
					}
				}
			}
		})
	}
}

// oracleRow runs cfg's plan from src and renders its pinRow, with the
// store-wide trace-cache counters left out of the report: they count every
// run sharing the cache, not this one.
func oracleRow(t *testing.T, key string, cfg Config, src source) string {
	t.Helper()
	p, err := plan(cfg, src, nil)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	res, err := p.run()
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	res.Report.TraceCache = nil
	row, err := pinRow(key, res)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	return row
}

// TestGroundTruthRunsPredictionPartition checks that ground truth pipelines
// the layers as the prediction does when its native trace balances stages
// differently: across batch sizes (trace batch 128, global batch 256) and
// across GPUs (Fig 11 case 1: an A100 trace predicting 8×H100).
func TestGroundTruthRunsPredictionPartition(t *testing.T) {
	p1, p3 := gpu.P1, gpu.P3
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cross-batch", Config{Model: "vgg13", Platform: &p1, Parallelism: PP,
			TraceBatch: 128, GlobalBatch: 256, MicroBatches: 4}},
		{"cross-gpu", Config{Model: "resnet50", Platform: &p3, Parallelism: PP,
			TraceBatch: 128, TraceGPU: "A100", GlobalBatch: 256,
			MicroBatches: 2}},
	} {
		tc.cfg.Telemetry = true
		pred, err := Simulate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		truth, err := GroundTruth(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ps := pred.Report.Parallel.StageOfLayer
		gs := truth.Report.Parallel.StageOfLayer
		if len(ps) == 0 || !slices.Equal(ps, gs) {
			t.Errorf("%s: prediction stages %v, ground truth %v", tc.name, ps, gs)
		}
	}
}

// TestNativeTraceSharedWhenKeysMatch checks the traces a native source
// reads: at another batch its own native trace, with the partition still
// the prediction's; keyed like the prediction's trace, that one trace,
// fetched once.
func TestNativeTraceSharedWhenKeysMatch(t *testing.T) {
	p1 := gpu.P1
	cfg, err := (&Config{Model: "vgg13", Platform: &p1, Parallelism: PP,
		GlobalBatch: 256}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	pred, predStages, err := prediction.trace(cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth, truthStages, err := groundTruth.trace(cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pred.BatchSize != 128 || truth.BatchSize != 256 {
		t.Fatalf("trace batches %d and %d, want 128 and 256", pred.BatchSize,
			truth.BatchSize)
	}
	if !slices.Equal(predStages, truthStages) {
		t.Fatalf("partitions differ: %v vs %v", predStages, truthStages)
	}
	cfg.GlobalBatch, cfg.Cache = 128, tracecache.New()
	if _, _, err := groundTruth.trace(cfg, 2, nil); err != nil {
		t.Fatal(err)
	}
	if st := cfg.Cache.Stats(); st.TraceMisses != 1 || st.TraceHits != 0 {
		t.Fatalf("one trace key fetched %d times", st.TraceMisses+st.TraceHits)
	}
}

// TestValidatePairFetchesPredictionTraceOnce checks that a validation pair
// reads each trace it runs once: the ground truth takes the prediction
// plan's pipeline partition instead of fetching the prediction's trace
// again to balance it.
func TestValidatePairFetchesPredictionTraceOnce(t *testing.T) {
	p1 := gpu.P1
	cache := tracecache.New()
	cmp, _, _, err := ValidatePair(Config{Model: "vgg13", Platform: &p1,
		Parallelism: PP, GlobalBatch: 256, MicroBatches: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.TraceMisses != 2 || st.TraceHits != 0 {
		t.Fatalf("trace cache %d misses, %d hits; want 2 misses (the "+
			"prediction's and the native trace), 0 hits", st.TraceMisses,
			st.TraceHits)
	}
	// The same pair without a cache: the comparison does not depend on it.
	want, err := Validate(Config{Model: "vgg13", Platform: &p1,
		Parallelism: PP, GlobalBatch: 256, MicroBatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if *cmp != *want {
		t.Fatalf("cached pair %+v, uncached %+v", *cmp, *want)
	}
}

// TestMemoryFootprintEveryStrategy estimates every strategy's footprint,
// including the one-stage pipeline of dp+tp+pp at its default pp = 1, whose
// stage map MemoryFootprint builds itself.
func TestMemoryFootprintEveryStrategy(t *testing.T) {
	for _, tc := range []struct {
		par    Parallelism
		tp, pp int
		gpus   int
	}{
		{Single, 0, 0, 1}, {DP, 0, 0, 4}, {DDP, 0, 0, 4}, {ZeRO1, 0, 0, 4},
		{TP, 0, 0, 4}, {PP, 0, 0, 4}, {DPPP, 0, 0, 2}, {DPTP, 0, 0, 2},
		{DPTPPP, 2, 1, 1}, {DPTPPP, 1, 2, 2},
	} {
		mem, err := MemoryFootprint(Config{Model: "resnet18", Platform: p2(),
			Parallelism: tc.par, TPRanks: tc.tp, PPStages: tc.pp})
		if err != nil {
			t.Fatalf("%s tp%d pp%d: %v", tc.par, tc.tp, tc.pp, err)
		}
		if len(mem.PerGPU) != tc.gpus {
			t.Errorf("%s tp%d pp%d: %d footprints, want %d", tc.par, tc.tp,
				tc.pp, len(mem.PerGPU), tc.gpus)
		}
	}
}
