package extrapolator

import (
	"fmt"

	"triosim/internal/collective"
	"triosim/internal/network"
	"triosim/internal/task"
	"triosim/internal/telemetry"
)

// layerGroup is a run of consecutive same-layer op indices.
type layerGroup struct {
	layer int
	ops   []int
}

// groupByLayer splits an op index sequence into consecutive layer runs.
func (b *builder) groupByLayer(ops []int) []layerGroup {
	var out []layerGroup
	for _, idx := range ops {
		l := b.tr.Ops[idx].Layer
		if len(out) == 0 || out[len(out)-1].layer != l {
			out = append(out, layerGroup{layer: l})
		}
		out[len(out)-1].ops = append(out[len(out)-1].ops, idx)
	}
	return out
}

// TensorParallel extrapolates the trace to N-GPU tensor-parallel training:
// each parallelizable operator's tensor (weights and the corresponding
// work) is divided across the GPUs; at the end of each such layer the GPUs
// gather the partial outputs from all devices (paper §4.3). The batch is
// replicated, not split. It is the one-replica case of HybridDPTP.
func TensorParallel(cfg Config) (*Result, error) {
	return dpTP(cfg, 1)
}

// HybridDPTP extrapolates to hybrid data + tensor parallelism: dpGroups
// tensor-parallel replicas of NumGPUs/dpGroups ranks each. Every replica
// runs TP over its batch share; gradients of the local weight shards are
// then AllReduced across the replicas holding the same shard.
func HybridDPTP(cfg Config, dpGroups int) (*Result, error) {
	if err := checkGroups(cfg, dpGroups); err != nil {
		return nil, err
	}
	return dpTP(cfg, dpGroups)
}

// checkGroups validates a hybrid strategy's data-parallel group count.
func checkGroups(cfg Config, dpGroups int) error {
	if dpGroups < 2 {
		return fmt.Errorf("extrapolator: hybrid needs ≥2 DP groups, got %d",
			dpGroups)
	}
	if cfg.NumGPUs%dpGroups != 0 {
		return fmt.Errorf("extrapolator: %d GPUs not divisible into %d groups",
			cfg.NumGPUs, dpGroups)
	}
	return nil
}

// dpTP emits dpGroups tensor-parallel replicas. Replica g runs its ranks on
// physical GPUs [g·R, (g+1)·R), R = NumGPUs/dpGroups, through a logMap
// window; a single replica keeps the identity map (so the topology's ring
// order applies) and unsuffixed labels, and has no cross-replica AllReduce.
func dpTP(cfg Config, dpGroups int) (*Result, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	cfg = b.cfg
	ranks := cfg.NumGPUs / dpGroups
	scale := float64(cfg.GlobalBatch) / float64(dpGroups) /
		float64(b.tr.BatchSize)
	shard := 1.0 / float64(ranks)
	// Each replica rank holds 1/ranks of the weights; the cross-replica
	// AllReduce moves that shard's gradients.
	shardGradBytes := float64(b.tr.GradientBytes()) * shard

	res := &Result{Graph: b.g,
		Meta: telemetry.ParallelStat{Strategy: "dp+tp", Replicas: dpGroups}}
	if dpGroups == 1 {
		res.Meta = telemetry.ParallelStat{Strategy: "tp", Replicas: ranks}
	}
	fwd, bwd := b.groupByLayer(b.fwd), b.groupByLayer(b.bwd)
	gate := b.g.AddBarrier("start")
	for it := 0; it < cfg.Iterations; it++ {
		suffix := fmt.Sprintf("-it%d", it)

		// TP forward+backward per replica.
		lastByGPU := make([][]*task.Task, dpGroups)
		for g := 0; g < dpGroups; g++ {
			gsuffix := suffix
			if dpGroups > 1 {
				win := make([]int, ranks)
				for r := 0; r < ranks; r++ {
					win[r] = g*ranks + r
				}
				b.logMap = win
				gsuffix = fmt.Sprintf("%s-r%d", suffix, g)
			}
			prev := make([]*task.Task, ranks)
			for r := 0; r < ranks; r++ {
				// Tensor parallelism replicates the input batch on every
				// rank.
				prev[r] = b.stageInput(b.node(r), scale, gate,
					fmt.Sprintf("stage-input-g%d%s", r, gsuffix))
			}
			prev = b.tpLayers(fwd, scale, shard, prev, gsuffix, "fwd")
			prev = b.tpLayers(bwd, scale, shard, prev, gsuffix, "bwd")
			lastByGPU[g] = prev
		}
		b.logMap = nil

		// Cross-replica gradient AllReduce per TP rank (training only).
		var synced []*task.Task
		if dpGroups > 1 && !cfg.ForwardOnly {
			synced = make([]*task.Task, ranks)
			for r := 0; r < ranks; r++ {
				ring := make([]network.NodeID, dpGroups)
				gates := make([]*task.Task, dpGroups)
				for g := 0; g < dpGroups; g++ {
					ring[g] = b.gpus[g*ranks+r]
					gates[g] = lastByGPU[g][r]
				}
				synced[r] = collective.RingAllReduce(b.g, ring, shardGradBytes,
					gates, collective.Options{
						StepDelay: b.cfg.Effects.CommStepLatency,
						Label:     fmt.Sprintf("hp-allreduce-r%d%s", r, suffix),
						Log:       b.cfg.Collectives,
					})
			}
		}

		// Sharded optimizer per GPU: it updates the local weight shard only.
		end := b.g.AddBarrier("iter-done" + suffix)
		for g := 0; g < dpGroups; g++ {
			for r := 0; r < ranks; r++ {
				prev := lastByGPU[g][r]
				if synced != nil {
					prev = synced[r]
				}
				for _, idx := range b.opt {
					op := &b.tr.Ops[idx]
					t := b.g.AddCompute(g*ranks+r,
						b.opDuration(op, scale, shard), op.Name+suffix)
					t.Layer = int32(op.Layer)
					b.g.AddDep(prev, t)
					prev = t
				}
				b.g.AddDep(prev, end)
			}
		}
		res.IterationEnds = append(res.IterationEnds, end)
		gate = end
	}
	return res, nil
}

// tpLayers emits one phase's layers across the ranks of prev (the logical
// GPUs 0..len(prev)-1): every op runs on each rank, parallelizable ops on a
// 1/shard slice, and each layer with a parallelizable op ends in a ring
// collective of its full output (AllGather forward, AllReduce backward),
// followed by the hardware's per-layer TP sync delay when configured. A
// single rank has nothing to gather and emits compute only.
func (b *builder) tpLayers(groups []layerGroup, scale, shard float64,
	prev []*task.Task, suffix, phase string) []*task.Task {

	n := len(prev)
	for _, grp := range groups {
		hasPar := false
		for _, idx := range grp.ops {
			op := &b.tr.Ops[idx]
			sh := 1.0
			if op.Parallelizable {
				sh = shard
				hasPar = true
			}
			dur := b.opDuration(op, scale, sh)
			label := b.label(op.Name, suffix)
			for i := 0; i < n; i++ {
				t := b.g.AddCompute(b.phys(i), dur, label)
				t.Layer = int32(op.Layer)
				b.g.AddDep(prev[i], t)
				prev[i] = t
			}
		}
		if !hasPar || n == 1 || len(grp.ops) == 0 {
			continue
		}
		// Boundary tensor: the layer's final output activation at full
		// (unsharded) size — every rank must end up with the whole result.
		lastOp := &b.tr.Ops[grp.ops[len(grp.ops)-1]]
		boundary := b.outBytes(lastOp, scale)
		opts := collective.Options{
			StepDelay: b.cfg.Effects.CommStepLatency,
			Label: fmt.Sprintf("tp-%s-l%d%s", phase, grp.layer,
				suffix),
			Log: b.cfg.Collectives,
		}
		var coll *task.Task
		if phase == "fwd" {
			coll = collective.RingAllGather(b.g, b.ringNodes(), boundary,
				b.permuteGates(prev), opts)
		} else {
			coll = collective.RingAllReduce(b.g, b.ringNodes(), boundary,
				b.permuteGates(prev), opts)
		}
		if b.cfg.Effects.TPSyncPerLayer.After(0) {
			d := b.g.AddDelay(b.cfg.Effects.TPSyncPerLayer,
				fmt.Sprintf("tp-sync-l%d-%s%s", grp.layer, phase, suffix))
			b.g.AddDep(coll, d)
			coll = d
		}
		for i := 0; i < n; i++ {
			prev[i] = coll
		}
	}
	return prev
}
