package core

import (
	"strings"
	"testing"

	"triosim/internal/spantrace"
)

func TestInferenceFasterThanTraining(t *testing.T) {
	base := Config{Model: "resnet50", Platform: p2(), Parallelism: DDP,
		TraceBatch: 64}
	train, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	inf := base
	inf.InferenceOnly = true
	infRes, err := Simulate(inf)
	if err != nil {
		t.Fatal(err)
	}
	// Forward-only drops the backward pass (≥half the work) and all
	// gradient traffic.
	if infRes.PerIteration >= train.PerIteration/2 {
		t.Fatalf("inference %v not under half of training %v",
			infRes.PerIteration, train.PerIteration)
	}
	if infRes.CommTime > 0 {
		t.Fatalf("DP inference should have no inter-GPU traffic, got %v",
			infRes.CommTime)
	}
}

func TestInferencePipelineHasBoundaryTrafficOnly(t *testing.T) {
	cfg := Config{Model: "vgg16", Platform: p2(), Parallelism: PP,
		TraceBatch: 64, MicroBatches: 4, InferenceOnly: true}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommTime <= 0 {
		t.Fatal("pipeline inference still moves activations between stages")
	}
	// And TP inference gathers layer outputs.
	cfg.Parallelism = TP
	cfg.MicroBatches = 0
	res, err = Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommTime <= 0 {
		t.Fatal("TP inference should gather partial outputs")
	}
}

func TestInferenceGroundTruthValidates(t *testing.T) {
	cmp, err := Validate(Config{Model: "resnet18", Platform: p1(),
		Parallelism: DP, TraceBatch: 64, InferenceOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Li's Model's home turf: single-digit error band for inference.
	if cmp.Error > 0.12 {
		t.Fatalf("inference error %.1f%% out of band", cmp.Error*100)
	}
}

func TestInferenceOnlyForwardOps(t *testing.T) {
	res, err := Simulate(Config{Model: "resnet18", Platform: p1(),
		Parallelism: Single, TraceBatch: 32, InferenceOnly: true,
		SpanTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	computes := 0
	for i := range res.Spans.Spans {
		sp := &res.Spans.Spans[i]
		if sp.Cat != spantrace.Compute {
			continue
		}
		computes++
		label := res.Spans.Name(sp.Name)
		if strings.HasSuffix(label, "_bwd") {
			t.Fatalf("backward op %q ran in inference mode", label)
		}
		if strings.HasPrefix(label, "sgd_step") {
			t.Fatalf("optimizer op ran in inference mode")
		}
	}
	if computes == 0 {
		t.Fatal("no compute spans recorded")
	}
}
