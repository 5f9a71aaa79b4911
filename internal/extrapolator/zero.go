package extrapolator

import (
	"fmt"

	"triosim/internal/collective"
	"triosim/internal/task"
	"triosim/internal/telemetry"
)

// DataParallelZeRO extrapolates ZeRO stage-1 data parallelism (the
// optimizer-state-sharding family the paper cites via ZeRO-Offload [61]):
// forward and backward replicate as in DP, but gradients are
// reduce-scattered so each rank reduces only its 1/N shard, the optimizer
// updates that shard alone, and an all-gather rematerializes the full
// parameters for the next iteration. Communication volume matches ring
// AllReduce (reduce-scatter + all-gather is its two halves) while the
// optimizer work and its state shrink by N.
func DataParallelZeRO(cfg Config) (*Result, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	cfg = b.cfg
	n := cfg.NumGPUs
	scale := float64(cfg.GlobalBatch) / float64(n) / float64(b.tr.BatchSize)
	shard := 1.0 / float64(n)

	res := &Result{Graph: b.g,
		Meta: telemetry.ParallelStat{Strategy: "zero1", Replicas: n}}
	gate := b.g.AddBarrier("start")
	for it := 0; it < cfg.Iterations; it++ {
		suffix := fmt.Sprintf("-it%d", it)

		// Replicated forward + backward.
		lastBwd := make([]*task.Task, n)
		for i := 0; i < n; i++ {
			load := b.stageInput(b.node(i), scale, gate,
				fmt.Sprintf("stage-input-g%d%s", i, suffix))
			last := b.emitSeq(i, b.fwd, scale, 1, load, suffix)
			lastBwd[i] = b.emitSeq(i, b.bwd, scale, 1, last, suffix)
		}

		end := b.g.AddBarrier("iter-done" + suffix)
		if cfg.ForwardOnly {
			for i := 0; i < n; i++ {
				b.g.AddDep(lastBwd[i], end)
			}
			res.IterationEnds = append(res.IterationEnds, end)
			gate = end
			continue
		}

		opts := collective.Options{
			StepDelay: b.cfg.Effects.CommStepLatency,
			Log:       b.cfg.Collectives,
		}
		// Reduce-scatter the gradients: each rank ends with its reduced
		// shard.
		opts.Label = "zero-rs" + suffix
		rs := collective.RingReduceScatter(b.g, b.ringNodes(),
			float64(b.tr.GradientBytes()), b.permuteGates(lastBwd), opts)

		// Sharded optimizer step on every rank.
		optDone := make([]*task.Task, n)
		for i := 0; i < n; i++ {
			last := rs
			for _, idx := range b.opt {
				op := &b.tr.Ops[idx]
				t := b.g.AddCompute(b.phys(i),
					b.opDuration(op, scale, shard), op.Name+suffix)
				t.Layer = int32(op.Layer)
				b.g.AddDep(last, t)
				last = t
			}
			optDone[i] = last
		}

		// All-gather the updated parameter shards.
		opts.Label = "zero-ag" + suffix
		ag := collective.RingAllGather(b.g, b.ringNodes(),
			float64(b.tr.WeightBytes()), b.permuteGates(optDone), opts)
		b.g.AddDep(ag, end)

		res.IterationEnds = append(res.IterationEnds, end)
		gate = end
	}
	return res, nil
}
