// Package memory estimates per-GPU peak memory footprints for the simulated
// parallelism strategies. The paper repeatedly runs into memory capacity as
// the binding constraint (transformers OOM at batch 256 on real hardware;
// Llama is traced at batch 16 "to avoid out-of-memory issues"), so a
// simulator meant for what-if exploration needs to tell the user which
// configurations would not fit before they burn GPU-hours discovering it.
//
// The estimate follows standard training accounting:
//
//	weights + gradients + optimizer state + live activations + input batch
//
// Activations are the forward outputs kept for the backward pass; data
// parallelism scales them by the per-GPU batch share, tensor parallelism
// keeps them at full batch but shards weights, and GPipe holds every
// in-flight micro-batch's activations until its backward drains (so a full
// batch worth per stage at the flush point).
package memory

import (
	"fmt"

	"triosim/internal/tensor"
	"triosim/internal/trace"
)

// Strategy mirrors the extrapolator's parallelism schemes.
type Strategy string

// Strategies.
const (
	Single Strategy = "single"
	DP     Strategy = "dp"
	TP     Strategy = "tp"
	PP     Strategy = "pp"
	// ZeRO1 replicates weights and gradients but shards optimizer state.
	ZeRO1 Strategy = "zero1"
)

// Footprint is one GPU's estimated peak memory, in bytes.
type Footprint struct {
	Weights        int64
	Gradients      int64
	OptimizerState int64
	Activations    int64
	Input          int64
}

// Total sums the components.
func (f Footprint) Total() int64 {
	return f.Weights + f.Gradients + f.OptimizerState + f.Activations +
		f.Input
}

// Config parameterizes an estimate.
type Config struct {
	Trace    *trace.Trace
	Strategy Strategy
	NumGPUs  int
	// GlobalBatch defaults to the trace batch.
	GlobalBatch int
	// OptimizerStatePerParamBytes defaults to 4 (SGD with momentum); use 8
	// for Adam's two moments.
	OptimizerStatePerParamBytes int64
	// StageOf is the PP layer→stage mapping, one stage index per trace
	// layer (required for PP).
	StageOf []int
}

// Estimate returns each GPU's peak footprint.
func Estimate(cfg Config) ([]Footprint, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("memory: nil trace")
	}
	if cfg.NumGPUs < 1 {
		return nil, fmt.Errorf("memory: %d GPUs", cfg.NumGPUs)
	}
	tr := cfg.Trace
	if cfg.GlobalBatch == 0 {
		cfg.GlobalBatch = tr.BatchSize
	}
	if cfg.OptimizerStatePerParamBytes == 0 {
		cfg.OptimizerStatePerParamBytes = 4
	}
	batchScale := float64(cfg.GlobalBatch) / float64(tr.BatchSize)

	weights := tr.WeightBytes()
	grads := tr.GradientBytes()
	params := weights / 4 // float32 weights
	optState := params * cfg.OptimizerStatePerParamBytes
	input := float64(tr.InputBytes())

	// Live activations: forward outputs of Activation category, per layer.
	actByLayer := map[int]float64{}
	var actTotal float64
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Phase != trace.Forward {
			continue
		}
		for _, id := range op.Outputs {
			t := tr.Tensors.Get(id)
			if t == nil || t.Category != tensor.Activation {
				continue
			}
			b := float64(t.Bytes())
			actByLayer[op.Layer] += b
			actTotal += b
		}
	}

	n := cfg.NumGPUs
	out := make([]Footprint, n)
	switch cfg.Strategy {
	case Single:
		if n != 1 {
			return nil, fmt.Errorf("memory: single strategy with %d GPUs", n)
		}
		out[0] = Footprint{
			Weights:        weights,
			Gradients:      grads,
			OptimizerState: optState,
			Activations:    int64(actTotal * batchScale),
			Input:          int64(input * batchScale),
		}
	case DP, ZeRO1:
		per := batchScale / float64(n)
		ost := optState
		if cfg.Strategy == ZeRO1 {
			ost = optState / int64(n)
		}
		for i := range out {
			out[i] = Footprint{
				Weights:        weights,
				Gradients:      grads,
				OptimizerState: ost,
				Activations:    int64(actTotal * per),
				Input:          int64(input * per),
			}
		}
	case TP:
		shard := int64(n)
		for i := range out {
			out[i] = Footprint{
				Weights:        weights / shard,
				Gradients:      grads / shard,
				OptimizerState: optState / shard,
				// Full batch flows through every rank; boundary
				// activations are replicated after each gather.
				Activations: int64(actTotal * batchScale),
				Input:       int64(input * batchScale),
			}
		}
	case PP:
		stageOf := cfg.StageOf
		nLayers := tr.NumLayers()
		if len(stageOf) != nLayers {
			return nil, fmt.Errorf("memory: stage map covers %d of %d layers",
				len(stageOf), nLayers)
		}
		// Weights/grads per stage from layer ownership; at the GPipe flush
		// every micro-batch's activations are live, i.e. a full global
		// batch worth of this stage's activations.
		wByLayer := map[int]int64{}
		for i := range tr.Ops {
			op := &tr.Ops[i]
			if op.Phase != trace.Forward {
				continue
			}
			for _, id := range op.Inputs {
				t := tr.Tensors.Get(id)
				if t != nil && t.Category == tensor.Weight {
					wByLayer[op.Layer] += t.Bytes()
				}
			}
		}
		for l := 0; l < nLayers; l++ {
			s := stageOf[l]
			if s < 0 || s >= n {
				return nil, fmt.Errorf("memory: layer %d maps to stage %d of %d",
					l, s, n)
			}
			out[s].Weights += wByLayer[l]
			out[s].Activations += int64(actByLayer[l] * batchScale)
		}
		for i := range out {
			out[i].Gradients = out[i].Weights
			out[i].OptimizerState = out[i].Weights / 4 *
				cfg.OptimizerStatePerParamBytes
		}
		out[0].Input = int64(input * batchScale)
	default:
		return nil, fmt.Errorf("memory: unknown strategy %q", cfg.Strategy)
	}
	return out, nil
}

// Fits reports whether every GPU's footprint is within capacity, and the
// worst utilization fraction.
func Fits(footprints []Footprint, capacity int64) (bool, float64) {
	worst := 0.0
	for _, f := range footprints {
		u := float64(f.Total()) / float64(capacity)
		if u > worst {
			worst = u
		}
	}
	return worst <= 1.0, worst
}
