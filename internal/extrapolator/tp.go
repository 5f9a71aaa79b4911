package extrapolator

import (
	"strconv"

	"triosim/internal/collective"
	"triosim/internal/task"
)

// layerGroup is a run of consecutive same-layer op indices. sync marks a
// run that ends in a tensor-parallel sync: it holds a parallelizable op,
// and its layer does not continue into the next gradient bucket.
type layerGroup struct {
	layer int
	ops   []int
	sync  bool
}

// groupByLayer splits an op index sequence into consecutive layer runs,
// each a capped sub-slice of ops.
func (b *builder) groupByLayer(ops []int) []layerGroup {
	ends := func(i int) bool { // ops[i] is the last op of its layer run
		return i+1 == len(ops) ||
			b.tr.Ops[ops[i+1]].Layer != b.tr.Ops[ops[i]].Layer
	}
	runs := 0
	for i := range ops {
		if ends(i) {
			runs++
		}
	}
	out := make([]layerGroup, 0, runs)
	start, par := 0, false
	for i, idx := range ops {
		par = par || b.tr.Ops[idx].Parallelizable
		if ends(i) {
			out = append(out, layerGroup{layer: b.tr.Ops[idx].Layer,
				ops: ops[start : i+1 : i+1], sync: par})
			start, par = i+1, false
		}
	}
	return out
}

// TensorParallel extrapolates the trace to N-GPU tensor-parallel training:
// each parallelizable operator's tensor (weights and the corresponding
// work) is divided across the GPUs; at the end of each such layer the GPUs
// gather the partial outputs from all devices (paper §4.3). The batch is
// replicated, not split. It is the grid's 1×N×1 point, the one-replica case
// of "dp+tp", whose tensor-parallel replicas each run TP over their batch
// share and then AllReduce the gradients of their weight shards across the
// replicas holding the same shard.
func TensorParallel(cfg Config) (*Result, error) {
	return Build("tp", cfg, 1, cfg.NumGPUs, 1)
}

// tpLayers emits one phase's layers across the ranks of prev (the logical
// GPUs 0..len(prev)-1): every op runs on each rank, parallelizable ops on a
// 1/shard slice, and each sync run ends in a ring collective of its
// layer's full output (AllGather forward, AllReduce backward),
// followed by the hardware's per-layer TP sync delay when configured. A
// single rank has nothing to gather and emits compute only.
func (b *builder) tpLayers(groups []layerGroup, scale, shard float64,
	prev []*task.Task, suffix, phase string) []*task.Task {

	n := len(prev)
	for _, grp := range groups {
		for _, idx := range grp.ops {
			op := &b.tr.Ops[idx]
			sh := 1.0
			if op.Parallelizable {
				sh = shard
			}
			dur := b.opDuration(op, scale, sh) * b.infl
			label := b.label(op.Name, suffix)
			for i := 0; i < n; i++ {
				t := b.g.AddCompute(b.phys(i), dur, label)
				t.Layer = int32(op.Layer)
				b.g.AddDep(prev[i], t)
				if b.dispatch != nil && phase == "fwd" {
					b.g.AddDep(b.dispatch[op.Layer], t)
				}
				prev[i] = t
			}
		}
		if !grp.sync || n == 1 {
			continue
		}
		// Boundary tensor: the layer's final output activation at full
		// (unsharded) size — every rank must end up with the whole result.
		lastOp := &b.tr.Ops[grp.ops[len(grp.ops)-1]]
		boundary := b.outBytes(lastOp, scale)
		layer := strconv.Itoa(grp.layer)
		opts := collective.Options{
			StepDelay: b.cfg.Effects.CommStepLatency,
			Label:     "tp-" + phase + "-l" + layer + suffix,
			Log:       b.cfg.Collectives,
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
				"tp-sync-l"+layer+"-"+phase+suffix)
			b.g.AddDep(coll, d)
			coll = d
		}
		for i := 0; i < n; i++ {
			prev[i] = coll
		}
	}
	return prev
}
