package memory

import (
	"testing"

	"triosim/internal/extrapolator"
	"triosim/internal/gpu"
	"triosim/internal/hwsim"
	"triosim/internal/trace"
)

func traceFor(t *testing.T, model string, batch int) *trace.Trace {
	t.Helper()
	tr, err := hwsim.CollectTrace(model, batch, &gpu.A100)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSingleGPUFootprint(t *testing.T) {
	tr := traceFor(t, "resnet50", 128)
	fp, err := Estimate(Config{Trace: tr, Strategy: Single, NumGPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 1 {
		t.Fatalf("footprints = %d", len(fp))
	}
	f := fp[0]
	if f.Weights != tr.WeightBytes() || f.Gradients != tr.GradientBytes() {
		t.Fatal("weights/gradients wrong")
	}
	if f.OptimizerState != tr.WeightBytes() {
		t.Fatalf("SGD momentum state should equal weight bytes, got %d",
			f.OptimizerState)
	}
	if f.Activations <= f.Weights {
		t.Fatal("CNN activations at batch 128 should dominate weights")
	}
	// ResNet-50 at batch 128 trains within an A100's 80 GB.
	if ok, util := Fits(fp, gpu.A100.MemCapacity); !ok {
		t.Fatalf("resnet50@128 should fit an A100 (util %.2f)", util)
	}
}

func TestActivationsScaleWithBatch(t *testing.T) {
	tr := traceFor(t, "resnet18", 64)
	small, err := Estimate(Config{Trace: tr, Strategy: Single, NumGPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Estimate(Config{Trace: tr, Strategy: Single, NumGPUs: 1,
		GlobalBatch: 128})
	if err != nil {
		t.Fatal(err)
	}
	r := float64(big[0].Activations) / float64(small[0].Activations)
	if r < 1.99 || r > 2.01 {
		t.Fatalf("activation scaling %.3f, want 2", r)
	}
	if big[0].Weights != small[0].Weights {
		t.Fatal("weights must not scale with batch")
	}
}

func TestDPSplitsActivationsNotWeights(t *testing.T) {
	tr := traceFor(t, "vgg16", 128)
	solo, err := Estimate(Config{Trace: tr, Strategy: Single, NumGPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Estimate(Config{Trace: tr, Strategy: DP, NumGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range dp {
		if f.Weights != solo[0].Weights {
			t.Fatalf("gpu%d: DP weights should replicate", i)
		}
		r := float64(solo[0].Activations) / float64(f.Activations)
		if r < 3.99 || r > 4.01 {
			t.Fatalf("gpu%d: DP activation split %.3f, want 4", i, r)
		}
	}
}

func TestTPShardsWeightsNotActivations(t *testing.T) {
	tr := traceFor(t, "gpt2", 128)
	solo, err := Estimate(Config{Trace: tr, Strategy: Single, NumGPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := Estimate(Config{Trace: tr, Strategy: TP, NumGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tp {
		if f.Weights != solo[0].Weights/4 {
			t.Fatal("TP weights should shard 4 ways")
		}
		if f.Activations != solo[0].Activations {
			t.Fatal("TP activations stay at full batch")
		}
	}
}

func TestPPPartitionsAcrossStages(t *testing.T) {
	tr := traceFor(t, "resnet50", 128)
	pp, err := Estimate(Config{Trace: tr, Strategy: PP, NumGPUs: 4,
		StageOf: extrapolator.StageAssignment(tr, 4)})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Estimate(Config{Trace: tr, Strategy: Single, NumGPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wSum, aSum int64
	for _, f := range pp {
		wSum += f.Weights
		aSum += f.Activations
	}
	if wSum != solo[0].Weights {
		t.Fatalf("PP stage weights sum %d != total %d", wSum, solo[0].Weights)
	}
	if aSum != solo[0].Activations {
		t.Fatalf("PP stage activations sum %d != total %d",
			aSum, solo[0].Activations)
	}
	// Only stage 0 stages input.
	if pp[0].Input == 0 || pp[1].Input != 0 {
		t.Fatal("input staging should live on stage 0")
	}
}

func TestOOMDetection(t *testing.T) {
	// The paper's constraint: Llama is traced at batch 16 because larger
	// batches OOM. At batch 128 on a single GPU the footprint must exceed
	// 80 GB; at batch 16 it should fit.
	big := traceFor(t, "llama32-1b", 128)
	fp, err := Estimate(Config{Trace: big, Strategy: Single, NumGPUs: 1,
		OptimizerStatePerParamBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ok, util := Fits(fp, gpu.A100.MemCapacity); ok {
		t.Fatalf("llama@128 should OOM an 80 GB A100 (util %.2f)", util)
	}
	small := traceFor(t, "llama32-1b", 16)
	fp, err = Estimate(Config{Trace: small, Strategy: Single, NumGPUs: 1,
		OptimizerStatePerParamBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ok, util := Fits(fp, gpu.A100.MemCapacity); !ok {
		t.Fatalf("llama@16 should fit an 80 GB A100 (util %.2f)", util)
	}
}

func TestAdamDoublesOptimizerState(t *testing.T) {
	tr := traceFor(t, "resnet18", 32)
	sgd, _ := Estimate(Config{Trace: tr, Strategy: Single, NumGPUs: 1})
	adam, _ := Estimate(Config{Trace: tr, Strategy: Single, NumGPUs: 1,
		OptimizerStatePerParamBytes: 8})
	if adam[0].OptimizerState != 2*sgd[0].OptimizerState {
		t.Fatal("Adam state should be 2× SGD momentum")
	}
}

func TestEstimateValidation(t *testing.T) {
	tr := traceFor(t, "resnet18", 32)
	if _, err := Estimate(Config{Strategy: DP, NumGPUs: 2}); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := Estimate(Config{Trace: tr, Strategy: DP, NumGPUs: 0}); err == nil {
		t.Fatal("0 GPUs accepted")
	}
	if _, err := Estimate(Config{Trace: tr, Strategy: Single, NumGPUs: 2}); err == nil {
		t.Fatal("single with 2 GPUs accepted")
	}
	if _, err := Estimate(Config{Trace: tr, Strategy: "quantum",
		NumGPUs: 2}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := Estimate(Config{Trace: tr, Strategy: PP,
		NumGPUs: 2}); err == nil {
		t.Fatal("pp without a stage map accepted")
	}
	if _, err := Estimate(Config{Trace: tr, Strategy: PP, NumGPUs: 2,
		StageOf: []int{0}}); err == nil {
		t.Fatal("short stage map accepted")
	}
	if _, err := Estimate(Config{Trace: tr, Strategy: PP, NumGPUs: 2,
		StageOf: make([]int, tr.NumLayers())}); err != nil {
		t.Fatalf("valid stage map rejected: %v", err)
	}
	bad := make([]int, tr.NumLayers())
	bad[0] = 99
	if _, err := Estimate(Config{Trace: tr, Strategy: PP, NumGPUs: 2,
		StageOf: bad}); err == nil {
		t.Fatal("out-of-range stage accepted")
	}
}

func TestFitsUtilization(t *testing.T) {
	fp := []Footprint{{Weights: 60}, {Weights: 80}}
	ok, worst := Fits(fp, 100)
	if !ok || worst != 0.8 {
		t.Fatalf("Fits = %v, %v", ok, worst)
	}
	ok, worst = Fits(fp, 70)
	if ok || worst < 1.1 {
		t.Fatalf("over-capacity not detected: %v, %v", ok, worst)
	}
}
